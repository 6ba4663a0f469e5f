import inspect
import json
import math

import pytest

import levelrank
from levelrank import Verdict, partitions, verify, weights
from levelrank.cli import main
from levelrank.partitions import enumerate_rectangle, rectangle_parts
from levelrank.weights import LevelWeight, enumerate_weights, weight_components

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
    assert all(isinstance(r, Verdict) and r.holds for r in results)


def test_run_suites_passes_bound_only_to_bounded_suites():
    results = verify.run_suites(["cardinality", "mirror"], bound=2)
    assert [r.suite for r in results] == ["cardinality", "mirror", "mirror", "mirror"]
    assert results[0].name == "all n,m <= 2 binomial counts"


def test_run_suites_passes_bound_to_suites_with_a_bound_parameter(monkeypatch):
    calls = []

    def bounded(bound=5):
        calls.append(("bounded", bound))
        return [Verdict("tau", "fake", True)]

    def keyword_only(*, bound=5):
        calls.append(("keyword_only", bound))
        return [Verdict("branch", "fake", True)]

    def fixed():
        bound = 7  # a local, not a parameter
        calls.append(("fixed", bound))
        return [Verdict("golden", "fake", True)]

    monkeypatch.setitem(verify.SUITES, "tau", bounded)
    monkeypatch.setitem(verify.SUITES, "branch", keyword_only)
    monkeypatch.setitem(verify.SUITES, "golden", fixed)
    verify.run_suites(["tau", "branch", "golden"], bound=3)
    assert calls == [("bounded", 3), ("keyword_only", 3), ("fixed", 7)]
    calls.clear()
    verify.run_suites(["tau", "branch", "golden"])
    assert calls == [("bounded", 5), ("keyword_only", 5), ("fixed", 7)]


def test_run_suites_reads_the_registry_at_call_time(monkeypatch):
    def fake():
        return [Verdict("golden", "replaced", True)]

    monkeypatch.setitem(verify.SUITES, "golden", fake)
    assert verify.run_suites(["golden"]) == fake()


def test_verdict_suites_look_up_their_check_at_call_time(monkeypatch):
    from levelrank import branching

    seen = []

    def fake(n, m):
        seen.append((n, m))
        holds = (n, m) != (2, 3)
        return Verdict("twist", f"n={n} m={m}", holds, detail=str(holds))

    monkeypatch.setattr(branching, "twist_pairing_check", fake)
    results = verify.suite_twist(bound=3)
    assert seen == [(2, 2), (2, 3), (3, 2), (3, 3)]
    assert [r.holds for r in results] == [True, False, True, True]
    assert results[1].line() == "[FAIL] twist: n=2 m=3  (False)"


@pytest.mark.parametrize("check, args, suite, name", [
    ("branching.verify_exhaustion", (2, 3, 1), "exhaustion", "n=2 m=3 i=1"),
    ("symfunc.verify_skew_cauchy", (2, 3, 1), "cauchy", "n=2 m=3 i=1"),
    ("fusion.verlinde_check", (2, 3), "verlinde", "n=2 m=3"),
    ("branching.verify_equivalence_fusion", (2, 3), "equivalence", "n=2 m=3"),
    ("branching.verify_trace_form", (2, 3), "traceform", "n=2 m=3"),
    ("branching.twist_pairing_check", (2, 3), "twist", "n=2 m=3"),
])
def test_library_checks_return_a_verdict_of_their_suite(check, args, suite, name):
    module, fn = check.split(".")
    v = getattr(getattr(levelrank, module), fn)(*args)
    assert isinstance(v, Verdict)
    assert v.suite == suite and v.suite in verify.SUITES
    assert v.name == name
    assert bool(v) is v.holds is True
    assert v.counterexample is None and v.checked >= 1


def test_verlinde_counts_at_the_default_cases():
    """All a <= b, one column per Galois orbit: the orbits number 2, 2, 2, 4
    and 4 of the 3, 4, 6, 5 and 10 weights."""
    assert [r.checked for r in verify.suite_verlinde()] == [12, 20, 42, 60, 220]


def test_verdict_line_and_json():
    failing = Verdict("twist", "n=2 m=3", False, 4, (0, LevelWeight((3, 0)), 1, 2), "why")
    assert not failing
    assert failing.line() == "[FAIL] twist: n=2 m=3  (why)"
    assert Verdict("golden", "g", True).line() == "[PASS] golden: g"
    assert failing.to_json() == {
        "suite": "twist", "name": "n=2 m=3", "holds": False, "checked": 4,
        "detail": "why", "counterexample": "(0, LevelWeight(3, 0), 1, 2)", "error": None,
    }


def test_unknown_suite_raises_key_error():
    with pytest.raises(KeyError):
        verify.run_suites(["nonsense"])


def test_run_suites_isolates_a_raising_suite(monkeypatch):
    """A suite that raises gives one ERROR record, and the next suite runs."""
    exc = ArithmeticError("M_0d vanishes")

    def broken():
        raise exc

    monkeypatch.setitem(verify.SUITES, "golden", broken)
    results = verify.run_suites(["golden", "mirror"])
    assert results[0] == Verdict("golden", "raised", False, 0,
                                 detail="ArithmeticError: M_0d vanishes", error=exc)
    assert results[0].line() == "[ERROR] golden: raised  (ArithmeticError: M_0d vanishes)"
    assert results[0].to_json()["error"] == "ArithmeticError: M_0d vanishes"
    assert [r.suite for r in results] == ["golden", "mirror", "mirror", "mirror"]
    assert all(results[1:])


def test_run_suites_rejects_an_unknown_name_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setitem(verify.SUITES, "golden", lambda: ran.append(1) or [])
    with pytest.raises(KeyError):
        verify.run_suites(["golden", "nonsense"])
    assert ran == []


@pytest.mark.parametrize("i", range(2, 6))
def test_tau_preimage_check_catches_a_swap_in_one_rotated_class(monkeypatch, i):
    """Swap the images of the two rank-2 level-3 weights of class i >= n:
    rank 2 gives tau(pi a, i) and rank 3 gives pi(tau(b, i)). The map stays
    a degree-preserving involutive bijection, so only the partition
    preimage check can see it, and there the transpose route is run at
    |lam| mod 2 and rotated into class i."""
    a1, a2 = weights.enumerate_graded(2, 3, i)
    swap = {a1: a2, a2: a1}
    true_tau = verify.tau

    def swapped(a, j):
        if j % 6 == i and (a.rank, a.level) == (2, 3):
            return true_tau(swap.get(a, a), j)
        b = true_tau(a, j)
        if j % 6 == i and (a.rank, a.level) == (3, 2):
            return swap.get(b, b)
        return b

    monkeypatch.setattr(verify, "tau", swapped)
    failing = [r for r in verify.suite_tau(bound=3) if not r]
    assert failing and all(r.name.startswith("preimage ") for r in failing)
    assert failing[0].name == "preimage n=2 m=3"
    assert failing[0].detail.endswith(f" i={i}")


@pytest.mark.parametrize("i", range(6))
def test_tau_involution_check_catches_a_swap_on_one_side(monkeypatch, i):
    """Swap the images of the two rank-2 level-3 weights of class i, on the
    (2, 3) side only. Each class stays a degree-preserving bijection, so
    the first failure is the involution against the (3, 2) images."""
    a1, a2 = weights.enumerate_graded(2, 3, i)
    true_tau = verify.tau

    def swapped(a, j):
        if j % 6 == i and a in (a1, a2):
            return true_tau(a2 if a == a1 else a1, j)
        return true_tau(a, j)

    monkeypatch.setattr(verify, "tau", swapped)
    failing = [r for r in verify.suite_tau(bound=3) if not r]
    assert failing[0].line() == f"[FAIL] tau: involution n=2 m=3 i={i}  ({a1})"


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("m", range(0, 7))
def test_generators_yield_the_enumerators_tuples_in_order(n, m):
    """Both orders are also rebuilt independently: weights in reverse lex
    order, partitions by size and then lexicographically. The weights are
    distinct rank-n level-m components, as many as there are, so together
    with the order this pins the generator's exact output."""
    if m:
        parts = list(rectangle_parts(n, m))
        assert parts == [lam.parts for lam in enumerate_rectangle(n, m)]
        assert parts == sorted(parts, key=lambda t: (sum(t), t))
    if n >= 2:
        comps = list(weight_components(n, m))
        assert comps == [a.components for a in enumerate_weights(n, m)]
        assert comps == sorted(comps, reverse=True)
        assert all(len(c) == n and min(c) >= 0 and sum(c) == m for c in comps)
        assert len(set(comps)) == len(comps) == math.comb(n + m - 1, n - 1)


def test_cardinality_check_catches_a_dropped_partition(monkeypatch):
    def dropping(n, m):
        parts = list(partitions.rectangle_parts(n, m))
        return parts[1:] if (n, m) == (3, 2) else parts

    monkeypatch.setattr(verify, "rectangle_parts", dropping)
    assert [r.line() for r in verify.suite_cardinality(bound=3)] == [
        "[FAIL] cardinality: partitions n=3 m=2"]


def test_tau_dual_commute_check_catches_a_wrong_dual(monkeypatch):
    """A dual that fixes the non-self-dual class-0 weight [0,0,3] of rank 3
    level 3 leaves tau itself intact, so every check before dual-commute
    passes and the first failure is dual-commute at (3, 3). Its first
    witness is [0,3,0], which comes before [0,0,3] and maps to it."""
    wrong = LevelWeight((0, 0, 3))
    assert wrong.degree() == 0 and wrong.dual() != wrong
    true_dual = LevelWeight.dual
    monkeypatch.setattr(LevelWeight, "dual", lambda a: a if a == wrong else true_dual(a))
    failing = [r for r in verify.suite_tau(bound=3) if not r]
    assert failing[0].line() == "[FAIL] tau: dual-commute n=3 m=3  ([0,3,0])"


def test_tau_image_outside_the_table_is_a_bijection_failure(monkeypatch):
    """An image of the wrong rank has no position in the (m, n) table: the
    suite reports a bijection FAIL for its class, and never an ERROR."""
    a = weights.enumerate_graded(2, 3, 1)[0]
    true_tau = verify.tau
    monkeypatch.setattr(verify, "tau", lambda b, i: (
        LevelWeight((1, 1, 1, 0)) if (b, i) == (a, 1) else true_tau(b, i)))
    results = verify.run_suites(["tau"], bound=3)
    assert all(r.error is None for r in results)
    failing = [r.line() for r in results if not r]
    assert failing[0] == "[FAIL] tau: bijection n=2 m=3 i=1"


def test_branch_partition_route_check_catches_a_dropped_summand(monkeypatch):
    """Dropping one summand of ``branch(2, 3, 1)`` keeps the table
    multiplicity-free and its right degrees right; only the partition route
    misses the pair."""
    from levelrank import branching

    true_branch = branching.branch

    def dropping(n, m, i):
        table = true_branch(n, m, i)
        if (n, m, i) == (2, 3, 1):
            return branching.BranchingTable(n, m, i, table.positions[1:])
        return table

    monkeypatch.setattr(branching, "branch", dropping)
    failing = [r for r in verify.suite_branch(bound=3) if not r]
    assert [r.line() for r in failing] == ["[FAIL] branch: partition route n=2 m=3  (lam=(1,) i=1)"]


@pytest.mark.parametrize("n", range(2, 5))
@pytest.mark.parametrize("m", range(2, 5))
def test_transpose_images_match_the_unrotated_route(n, m):
    """Each (lam, i) with i = |lam| (mod n) comes once, C(n+m, n)*m items in
    all, and the rotated image is tau_from_partition called at that i."""
    left, right = weights.weight_table(n, m), weights.weight_table(m, n)
    items = list(verify._transpose_images(n, m))
    seen = [(lam.parts, i) for lam, _, i, _ in items]
    assert len(seen) == len(set(seen)) == math.comb(n + m, n) * m
    for lam, p, i, q in items:
        assert i % n == lam.size % n
        assert left.weights[p] == weights.from_partition(lam, n, m)
        assert right.weights[q] == weights.tau_from_partition(lam, n, m, i)


def test_tau_and_branch_records_count_the_identities_decided(capsys):
    """At (2, 2): 3 weights, 2 of degree 0, 6 partitions in the 2 x 2 box and
    4 classes. tau decides 4 bijections, 6 degrees, 6 involutions, 12
    preimages, 2 duals and 3 degree shifts; branch 8 multiplicity checks, 6
    right degrees, 12 partition-route pairs and 2 invertible pairs. The
    text lines stay bare."""
    for suite, checked in (("tau", 33), ("branch", 28)):
        assert main(["verify", suite, "--bound", "2", "--json"]) == 0
        [record] = json.loads(capsys.readouterr().out)["results"]
        assert (record["checked"], record["detail"]) == (checked, "")
        assert verify.SUITES[suite](bound=2)[0].line() == f"[PASS] {suite}: {record['name']}"
