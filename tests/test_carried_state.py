"""The state a resolve carries from round to round, against full
recomputation.

`resolve.Replay` carries the cone indices of the current maximal cones
and the formatted lines of its fan text, and updates both on the touched
hosts only; `subdivide._simultaneous_stars` derives each new complex from
the one before (`Complex._derived`) with its maximal cones, dimensions
and generator tuples carried over.  At the input and after every stage of
every corpus resolution and of the seed-0 benchmark cases, the carried
trace row must equal `_index_measure`, the carried hash `complex_hash`,
and every derived complex a complex built afresh from its rays and cones.
"""

from unittest import mock

import pytest

from equifan.complexes import Complex
from equifan.fanio import complex_hash
from equifan.resolve import Replay, _index_measure, resolve_equivariant

from test_exact_parameters import CORPUS_RUNS
from test_naturality import benchmark_runs


RUNS = CORPUS_RUNS + list(benchmark_runs())


def carried_states(cx, elements, mode):
    """[(trace row, carried hash, complex)] after the input and after each
    stage of the resolve, and every complex it derived."""
    states, derived = [], []
    init, stage, derive = Replay.__init__, Replay.stage, Complex._derived.__func__

    def init_spy(self, cx, generators=None):
        init(self, cx, generators)
        states.append((self.trace[-1], self.cur_hash, self.cur))

    def stage_spy(self, *args):
        out = stage(self, *args)
        states.append((self.trace[-1], self.cur_hash, self.cur))
        return out

    def derive_spy(cls, *args):
        out = derive(cls, *args)
        derived.append(out)
        return out

    with mock.patch.object(Replay, "__init__", init_spy), mock.patch.object(Replay, "stage", stage_spy), \
            mock.patch.object(Complex, "_derived", classmethod(derive_spy)):
        resolve_equivariant(cx, elements, mode=mode)
    return states, derived


def full_trace_row(label, cx):
    try:
        return (label, *_index_measure(cx))
    except ValueError:  # not simplicial
        return (label, None, None)


@pytest.mark.parametrize("name, cx, elements, mode", RUNS, ids=[run[0] for run in RUNS])
def test_carried_state_matches_full_recomputation(name, cx, elements, mode):
    states, derived = carried_states(cx, elements, mode)
    assert states[0][2] is cx
    for row, carried_hash, sub in states:
        assert row == full_trace_row(row[0], sub)
        assert carried_hash == complex_hash(sub)
    for out in derived:
        fresh = Complex(out.ambient_rank, out.rays, out.cones)
        assert out == fresh == Complex.from_maximal_cones(out.ambient_rank, out.rays, out.maximal_cones)
        assert out.maximal_cones == fresh.maximal_cones
        assert out._dim_cache == {cone: fresh.dim(cone) for cone in out._dim_cache}
        assert out._gens == {cone: fresh.generators(cone) for cone in out._gens}


def test_a_derived_complex_checks_its_new_rays():
    # as `__init__` does: integer entries of the ambient length
    cx = Complex.from_maximal_cones(2, [(1, 0), (0, 1)], [[0, 1]])
    with pytest.raises(ValueError, match="^ray length does not match ambient rank$"):
        Complex._derived(cx, [(1, 1, 1)], set(), set(), cx.maximal_cones, {})
    with pytest.raises(ValueError):
        Complex._derived(cx, [(1, 0.5)], set(), set(), cx.maximal_cones, {})
