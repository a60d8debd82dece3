"""Each selftest check can fail, and says where: a failing check's detail
names the case that broke.  The route a check guards is monkeypatched to a
wrong answer, and run_check must report the check's own message."""

import re

import pytest

from confspace import arnold, braid, ce, forests, modp, selftest
from confspace.graded import GradedDims
from confspace.linalg import SparseMatrix


class _FixedAbelianization:
    def abelianization(self):
        return (0, [3])


# (check, [(owner, attribute, replacement)], the start of the detail)
FAILURES = [
    (1, [(selftest, "factorial", lambda k: 0)],
     "AssertionError: census misses k! at k=0, n=2"),
    (2, [(arnold.CohomologyClass, "is_zero", lambda self: False)],
     "AssertionError: triple (1,2,3) fails at k=3, n=2"),
    (3, [(selftest, "smith_normal_form", lambda m: ([], -1))],
     "AssertionError: pairing not unimodular at k=1, n=2, degree 0"),
    (3, [(selftest, "_admissible_action",
          lambda perm, k, n, degree: SparseMatrix.identity(
              len(arnold.admissible_basis(k, n, degree)), selftest.ZZ))],
     "AssertionError: pairing not invariant under (1 2) at k=3, n=2, degree 1"),
    (4, [(selftest, "_random_forest", lambda k, rng: tuple(range(1, k + 1))),
         (selftest, "factorial", lambda k: 0)],
     "AssertionError: tall tree count at k=1, n=2: 1"),
    (5, [(forests, "unordered_betti_rational", lambda k, n: None)],
     "AssertionError: coinvariants at k=2, n=2: GradedDims({0: 1, 1: 1}) != None"),
    (7, [(ce, "sym_homology_odd", lambda h, k: None)],
     "AssertionError: euclidean-3 at k=0: GradedDims({0: 1}) != None"),
    (12, [(modp, "invariants_sigma_p", lambda p, n: None)],
     "AssertionError: fixed space at p=5, n=2: None != GradedDims({0: 1, 1: 1})"),
    (13, [(modp, "tate", lambda v, window: GradedDims({}))],
     "AssertionError: Tate dims on [-6, 6] at p=3, n=2, t=0: [0, 0,"),
    (14, [(modp, "bar_cohomology", lambda v, s_max: GradedDims({}))],
     "AssertionError: H^0 at n=2, t=0: stable 1 vs bar 0"),
    (15, [(braid, "artin_action", lambda word, k: None)],
     "AssertionError: relator (1, 2, 1, -2, -1, -2) not in the kernel of the Artin "
     "action, k=3"),
    (15, [(braid, "verify_paper_relations",
           lambda k: [{"family": "family:1", "params": (1, 2, 4), "ok": False}])],
     "AssertionError: relation family 'family:1' fails at (1, 2, 4) (k=3)"),
    (15, [(braid, "subgroup_presentation", lambda pres, table, reps: pres)],
     "AssertionError: alternating subgroup of Sym_3: (0, [2])"),
    (15, [(braid, "subgroup_presentation",
           lambda pres, table, reps: _FixedAbelianization())],
     "AssertionError: pure braid group on 3 strands: (0, [3])"),
]


@pytest.mark.parametrize("number, patches, detail", FAILURES,
                         ids=["%02d-%d" % (f[0], i) for i, f in enumerate(FAILURES)])
def test_failing_check_reports_its_case(monkeypatch, number, patches, detail):
    for owner, name, replacement in patches:
        monkeypatch.setattr(owner, name, replacement)
    result = selftest.run_check(number)
    assert not result.ok and not result.in_budget
    assert result.detail.startswith(detail), result.detail
    assert result.to_json_obj()["detail"] == result.detail


def test_run_check_refuses_an_unknown_number():
    with pytest.raises(ValueError, match=re.escape("no check numbered 99")):
        selftest.run_check(99)
