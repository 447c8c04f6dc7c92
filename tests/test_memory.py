"""Peak scratch memory of the array passes whose output is largest: the
build, the pair census and the link build.  ``tracemalloc`` sees numpy's
allocations, so each peak is compared with the array the pass must hold.
A built group is freed on its last reference, without the cyclic
collector."""

import gc
import tracemalloc
import weakref

import numpy as np
from test_words import _pair_census_oracle

from catdistort.linkgeom import build_link
from catdistort.navigator import ball, to_base
from catdistort.presentations import build_chain, build_double
from catdistort.words import check_pair_uniqueness, chop_ids, sigma_ids


def _peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_paper_double_build_peak_below_two_and_a_half_level_tables():
    spec, peak = _peak(build_double, 196, 2744, 14, certify=False)
    assert peak < 2.5 * spec.levels[1].images.nbytes


def test_pair_census_peak_below_twice_its_keys():
    fam = chop_ids(sigma_ids(196), 14, 2744)
    rep, peak = _peak(check_pair_uniqueness, fam)
    assert rep.ok
    keys = rep.total_positions * 4  # one int32 key per pair position
    assert peak < 2 * keys


def test_pair_census_with_int64_keys_matches_oracle():
    # 46341 ** 2 >= 2 ** 31, so these families take the int64 keys
    rng = np.random.default_rng(11)
    ids = np.array([1, 2, 3, 46_339, 46_340, 46_341, 50_000])
    for _ in range(100):
        k, L = rng.integers(1, 6), rng.integers(2, 6)
        arr = rng.choice(ids, size=(k, L))
        arr[0, 0] = ids[-1]
        oracle = _pair_census_oracle(arr.tolist())
        dups = tuple(sorted((p, c) for p, c in oracle.items() if c > 1))
        rep = check_pair_uniqueness(arr)
        assert (rep.ok, rep.duplicates, rep.total_positions,
                rep.distinct_pairs) == (not dups, dups, k * (L - 1),
                                        len(oracle))


def test_group_freed_on_last_reference():
    gc.collect()
    gc.disable()
    try:
        spec = build_double(9, 27, 3)
        assert to_base(spec, (28, 1, -28)) is not None
        assert ball(spec, 1).size > 1
        spec.certify_all()
        ref = weakref.ref(spec)
        del spec
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_build_link_peak_below_one_and_a_half_edge_arrays():
    spec = build_chain(2, 14, certify=False)
    link, peak = _peak(build_link, spec)
    assert peak < 1.5 * link.edges.nbytes


def test_preimage_tables_below_two_hundred_bytes_per_edge():
    # a map's hop table and petal pieces are built by its first preimage
    # and kept for its lifetime; a word-problem run builds them for a
    # paper t-map only when its words first pinch back through that map,
    # so their size is a step in the run's peak memory
    phi = build_double(196, 2744, 14, certify=False).levels[1].endos[36]
    phi.graph.petal_words()
    w = phi.apply((1, -2, 3))
    read, peak = _peak(phi.try_preimage, w)
    assert read == (1, -2, 3)
    assert peak < 200 * phi.graph.n_edges
