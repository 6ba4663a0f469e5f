import inspect
from itertools import permutations

import pytest

from levelrank import verify

NAMES = (
    "golden", "tau", "branch", "exhaustion", "cauchy", "rotation", "level1",
    "verlinde", "cc", "equivalence", "mirror", "traceform", "cardinality",
    "twist", "grading",
)
BOUNDED = ("tau", "branch", "exhaustion", "cauchy", "rotation", "level1", "cc",
           "cardinality", "twist", "grading")


def test_registry_holds_the_module_level_suites():
    assert tuple(verify.SUITES) == NAMES
    for name in NAMES:
        assert verify.SUITES[name] is getattr(verify, f"suite_{name}"), name


def test_bounded_suites_are_those_with_a_bound_parameter():
    found = tuple(name for name, fn in verify.SUITES.items()
                  if "bound" in inspect.signature(fn).parameters)
    assert found == BOUNDED


@pytest.mark.parametrize("name", BOUNDED)
def test_bounded_suite_checks_something_at_bound_2(name):
    results = verify.SUITES[name](bound=2)
    assert results
    assert all(isinstance(r, verify.CheckResult) and r.passed for r in results)


def test_run_suites_passes_bound_only_to_bounded_suites():
    results = verify.run_suites(["cardinality", "mirror"], bound=2)
    assert [r.suite for r in results] == ["cardinality", "mirror", "mirror", "mirror"]
    assert results[0].name == "all n,m <= 2 binomial counts"


def test_run_suites_reads_the_registry_at_call_time(monkeypatch):
    def fake():
        return [verify.CheckResult("golden", "replaced", True)]

    monkeypatch.setitem(verify.SUITES, "golden", fake)
    assert verify.run_suites(["golden"]) == fake()


def test_verdict_suites_look_up_their_check_at_call_time(monkeypatch):
    from levelrank import smatrix

    seen = []

    def fake(n, m):
        seen.append((n, m))
        return (n, m) != (2, 3)

    monkeypatch.setattr(smatrix, "twist_pairing_check", fake)
    results = verify.suite_twist(bound=3)
    assert seen == [(2, 2), (2, 3), (3, 2), (3, 3)]
    assert [r.passed for r in results] == [True, False, True, True]
    assert results[1].line() == "[FAIL] twist: n=2 m=3  (False)"


def test_unknown_suite_raises_key_error():
    with pytest.raises(KeyError):
        verify.run_suites(["nonsense"])
