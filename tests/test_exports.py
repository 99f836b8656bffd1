"""Every name the package exports has a caller in the product.

The product is `src/katzexp` and `perfbench/`; tests and demos do not
count. A re-export of `katzexp/__init__` must be read somewhere in `src/`
outside its own definition, or in `perfbench/*.py`, or be listed in ALLOWED
with the reason it stays. The same holds for every public method or
property of a public class in `src/` (a record or an error), with
MEMBERS_ALLOWED for its reasons. The check reads the sources with `ast`.
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

MEMBERS_ALLOWED = {}


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


def _src_uses(node):
    """Names read under node in src/: an import is not a use (the uses are
    counted where they happen), and inside a function or class definition
    its own name does not count, so a definition alone is no caller."""
    out = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ImportFrom):
            continue
        names = _src_uses(child)
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            names.discard(child.name)
        out |= names
    return out | (_read_names(node) if isinstance(node, (ast.Name, ast.Attribute)) else set())


def _src_trees():
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        if os.path.basename(path) != "__init__.py":
            yield _tree(path)


def product_references():
    """Names the product reads: every name read in src/ outside its own
    definition, and every name read or imported in perfbench/*.py."""
    seen = set()
    for tree in _src_trees():
        seen |= _src_uses(tree)
    for path in glob.glob(os.path.join(ROOT, "perfbench", "*.py")):
        seen |= _read_names(_tree(path))
    return seen


def public_members():
    """"Class.member" for each public method or property of a public class in src/."""
    members = set()
    for tree in _src_trees():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                members.update(
                    "%s.%s" % (cls.name, item.name)
                    for item in cls.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return members


def test_every_export_has_a_product_caller_or_a_reason():
    unused = exported_names() - product_references() - set(ALLOWED)
    assert not unused, "exports no product code uses: %s" % ", ".join(sorted(unused))


def test_allowlist_names_only_unused_exports():
    exported = exported_names()
    used = product_references()
    stale = {name for name in ALLOWED if name not in exported or name in used}
    assert not stale, "allowlisted names that are not unused exports: %s" % ", ".join(sorted(stale))


def test_every_public_member_has_a_product_caller_or_a_reason():
    used = product_references()
    unused = {m for m in public_members() - set(MEMBERS_ALLOWED) if m.split(".")[1] not in used}
    assert not unused, "members no product code reads: %s" % ", ".join(sorted(unused))


def test_member_allowlist_names_only_unused_members():
    members = public_members()
    used = product_references()
    stale = {m for m in MEMBERS_ALLOWED if m not in members or m.split(".")[1] in used}
    assert not stale, "allowlisted members that are not unused: %s" % ", ".join(sorted(stale))
