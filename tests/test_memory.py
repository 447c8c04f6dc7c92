"""Peak scratch memory of the two array passes whose output is largest:
the pair census and the link build.  ``tracemalloc`` sees numpy's
allocations, so each peak is compared with the array the pass must hold."""

import tracemalloc

from catdistort.linkgeom import build_link
from catdistort.presentations import build_chain
from catdistort.words import check_pair_uniqueness, chop_ids, sigma_ids


def _peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_census_peak_below_twice_its_keys():
    fam = chop_ids(sigma_ids(196), 14, 2744)
    rep, peak = _peak(check_pair_uniqueness, fam)
    assert rep.ok
    keys = rep.total_positions * 8  # one int64 key per pair position
    assert peak < 2 * keys


def test_build_link_peak_below_one_and_a_half_edge_arrays():
    spec = build_chain(2, 14, certify=False)
    link, peak = _peak(build_link, spec)
    assert peak < 1.5 * link.edges.nbytes
