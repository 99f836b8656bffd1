"""The package's records: read-only, picklable, and cheap to import.

Records are named tuples and QSeries is a plain read-only class, so a cold
`import katzexp.cli` loads neither dataclasses (with inspect, ast and dis)
nor multiprocessing (with pickle and socket); only `--jobs > 1` needs the
latter, and the spawn pool pickles series and splits across processes.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from types import MappingProxyType

import pytest

from katzexp import (
    QQ,
    BivarPolyModP,
    HPolynomial,
    QSeries,
    U_POLY,
    certify_rate,
    eisenstein_series,
    estar_family,
    katz_split_classical,
)
from katzexp.recurrence import SymPolyQ
from katzexp.reports import THEOREMS, RunReport, qprec_for_split

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _split():
    return katz_split_classical(eisenstein_series(8, qprec_for_split(5, 2)), 2, 5)


RECORDS = {
    "QSeries": lambda: QSeries([1, QQ(-1, 2), 3]),
    "KatzTerm": lambda: _split().terms[1],
    "KatzExpansion": _split,
    "RateCertificate": lambda: certify_rate(_split(), QQ(5, 6), 0),
    "FamilyMember": lambda: estar_family(1, 5, 10, 3),
    "BivarPolyModP": lambda: BivarPolyModP.gen_A(5),
    "Theorem": lambda: THEOREMS[("A", "s")],
    "RunReport": lambda: RunReport("c", {}, [], {}, "certified"),
    "HPolynomial": lambda: U_POLY,
    "SymPolyQ": lambda: SymPolyQ({3: 2}, 5),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_are_read_only(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in ("nums", "den") if name == "QSeries" else record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    if name == "QSeries":
        with pytest.raises(AttributeError):
            del record.nums
        assert record.nums == (2, -1, 6) and record.den == 2


def test_qseries_is_not_a_tuple():
    f = QSeries([1, QQ(1, 2)])
    assert f != (f.nums, f.den)
    assert f != f.coeffs
    assert f == QSeries([QQ(2, 2), QQ(2, 4)])
    assert hash(f) == hash(QSeries([QQ(2, 2), QQ(2, 4)]))


@pytest.mark.parametrize("name", ["HPolynomial", "SymPolyQ", "QSeries", "KatzExpansion"])
def test_record_survives_pickle(name):
    record = RECORDS[name]()
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record


def test_pickled_series_stays_read_only_and_canonical():
    f = QSeries([QQ(1, 3), 0, -2])
    f.coeffs  # the cached view travels with the pickle and must still agree
    back = pickle.loads(pickle.dumps(f))
    assert back.coeffs == f.coeffs and back.prec == 3
    with pytest.raises(AttributeError):
        back.den = 1


def test_sympolyq_terms_stay_read_only_after_pickle():
    back = pickle.loads(pickle.dumps(SymPolyQ({3: 2}, 5)))
    with pytest.raises(TypeError):
        back.terms[3] = 1


def test_make_and_replace_go_through_validation():
    with pytest.raises(ValueError):
        U_POLY._replace(coeffs=())
    with pytest.raises(ValueError):
        HPolynomial._make(((1, 0),))  # zero top coefficient
    assert U_POLY._replace(coeffs=(1, 3)) == HPolynomial((1, 3))
    made = SymPolyQ._make(({1: 1}, 1))
    assert isinstance(made.terms, MappingProxyType)
    replaced = SymPolyQ({3: 2}, 5)._replace(terms={3: 4})
    assert isinstance(replaced.terms, MappingProxyType) and replaced.den == 5
    with pytest.raises(TypeError):
        SymPolyQ._make(({1: 1}, 1, 2))


def test_cli_import_loads_only_what_a_serial_run_uses():
    heavy = ["dataclasses", "inspect", "multiprocessing", "pickle", "socket", "traceback"]
    code = (
        "import sys; bare = set(sys.modules); import katzexp, katzexp.cli; "
        "print(' '.join(m for m in %r if m in sys.modules and m not in bare))" % heavy
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
