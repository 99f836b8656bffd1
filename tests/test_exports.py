"""Every name the package exports has a caller in the product.

The product is `src/katzexp` and `perfbench/`; tests and demos do not
count. A re-export of `katzexp/__init__` must be read somewhere in `src/`
outside its own definition, or in `perfbench/*.py`, or be listed in ALLOWED
with the reason it stays. The check reads the sources with `ast`.
"""

from __future__ import annotations

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "katzexp")

ALLOWED = {
    "twisted_U": "paper object: U twisted into weight 0 by E_{p-1}^n",
    "twisted_T_ell": "paper object: T_ell twisted into weight 0 by E_{p-1}^n",
    "t_p_n_one": "paper object: the twisted T_p applied to the constant 1",
    "delta_weight_sequence": "paper object: the digit-sum weights s + (p-1-delta_p(s)) p^(m+t)",
    "phi_image_x": "paper object: Phi(x_n), the companion of phi_image in the Newton chain",
    "deep_recurrence_verify": "paper object: the deep recurrence that criterion 7 says vanishes",
    "projector_poly": "paper object: the stock projector, Serre's 11U(U+5) at p = 13",
    "agreement_depth": "measures an orbit's p-adic convergence to e*_n, the projector claim",
    "sigma_k": "oracle: the divisor sum that eisenstein_series computes by a sieve",
    "reconstruct": "oracle: rebuilds f from its Katz split, the check that a split is faithful",
    "revalidate_report": "the README's re-check of a stored report without recomputing it",
    "qs_to_json": "writes the series format that `katzexp katz --input` reads",
}


def _tree(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _read_names(node):
    """Names loaded, attributes read and names imported under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def exported_names():
    names = set()
    for node in _tree(os.path.join(PACKAGE, "__init__.py")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def product_references():
    """Names the product reads: in src/ each top-level statement counts
    except for the name it defines, so a definition alone is no caller."""
    seen = set()
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        if os.path.basename(path) == "__init__.py":
            continue
        for stmt in _tree(path).body:
            if isinstance(stmt, ast.ImportFrom):
                continue  # an import is not a use; the uses are counted below
            names = _read_names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            seen |= names
    for path in glob.glob(os.path.join(ROOT, "perfbench", "*.py")):
        seen |= _read_names(_tree(path))
    return seen


def test_every_export_has_a_product_caller_or_a_reason():
    unused = exported_names() - product_references() - set(ALLOWED)
    assert not unused, "exports no product code uses: %s" % ", ".join(sorted(unused))


def test_allowlist_names_only_unused_exports():
    exported = exported_names()
    used = product_references()
    stale = {name for name in ALLOWED if name not in exported or name in used}
    assert not stale, "allowlisted names that are not unused exports: %s" % ", ".join(sorted(stale))
