"""Tests of the benchmark's own checkers: each accepts the program's true
output and rejects one corrupted copy of it, and the program itself
rejects the engineered bad inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import checks
import harness
import run

cd = harness.use_source_tree()


@pytest.fixture(scope="module")
def b14():
    return cd.build_block(cd.BlockParams(1, 14, 14))


@pytest.fixture(scope="module")
def b2():
    return cd.build_block(cd.BlockParams(1, 2, 2))


def _t_map(spec):
    lv = spec.levels[0]
    return lv.stable_ids[0], lv.endos[0]


# -- each checker: true output accepted, one corruption rejected ----------------


def test_forward_expansion_changed_letter(b14):
    t, phi = _t_map(b14)
    out = cd.to_base(b14, (t,) * 3 + (5,) + (-t,) * 3)
    assert checks.check_forward(out, phi.images, 5, 3)
    bad = list(out)
    bad[1000] = bad[1000] % 14 + 1
    assert not checks.check_forward(tuple(bad), phi.images, 5, 3)
    assert not checks.check_forward(out[:-1], phi.images, 5, 3)
    assert not checks.check_forward(None, phi.images, 5, 3)


def test_preimage_changed_letter(b14):
    _, phi = _t_map(b14)
    rows = [tuple(int(x) for x in r) for r in phi.images]
    u = (3, -7, 11, 2, -9)
    img = checks.apply_rows(rows, u)
    assert img == cd.free_reduce(phi.apply(u))
    out = cd.rewrite_preimage(phi, img)
    assert checks.check_word(out, u)
    assert not checks.check_word(out[:2] + (4,) + out[3:], u)


def test_britton_pinch_count(b2):
    t, phi = _t_map(b2)
    red, trace = cd.britton_reduce(b2, (t,) * 4 + (1,) + (-t,) * 4)
    assert trace.pinch_count == 4
    assert checks.check_forward(red, phi.images, 1, 4)


def test_ball_size_off_by_one():
    rec = cd.ball(cd.free_group(2), 4)
    want = checks.free_ball_sizes(2, 4)
    assert want == [1, 5, 17, 53, 161]
    assert checks.check_sizes(rec.sizes, want)
    assert not checks.check_sizes(rec.sizes[:-1] + [rec.sizes[-1] + 1], want)


def test_ball_words(b2):
    rec = cd.ball(b2, 3)
    words = [e.word for e in rec.elements]
    depths = [e.length for e in rec.elements]
    assert checks.check_ball_words(words, depths, rec.sizes)
    assert not checks.check_ball_words(words[:-1] + [words[0]], depths, rec.sizes)
    assert not checks.check_ball_words(words[:-1] + [(1, -1)], depths, rec.sizes)
    assert not checks.check_ball_words(words, depths[:-1] + [1], rec.sizes)


def test_certificate_rank_short_by_one(b14):
    _, phi = _t_map(b14)
    g = cd.certify_injective(phi).graph
    assert checks.check_certificate(g.n_vertices, g.n_edges, 14, True)
    assert not checks.check_certificate(g.n_vertices + 1, g.n_edges, 14, True)
    assert not checks.check_certificate(g.n_vertices, g.n_edges, 14, False)


def test_link_edge_count_off_by_one(b14):
    link = cd.build_link(b14)
    assert checks.check_link_edges(link.n_edges, 14, b14.relator_count())
    assert not checks.check_link_edges(link.n_edges + 1, 14, b14.relator_count())
    assert checks.link_edge_count(14, 540_568) == 25 * 540_568


def test_census_totals():
    rows = np.array([[1, 2, 3], [4, 5, 6]])
    rep = cd.check_pair_uniqueness(rows)
    assert checks.check_census(rep, 2, 3)
    assert not checks.check_census(rep, 3, 3)


def test_curve(b2):
    curve = cd.measure_distortion(b2, 5)
    values = [v.value for _, v in curve.points]
    assert checks.check_curve(values, 2)
    assert not checks.check_curve(values[:3] + [values[2] - 1] + values[4:], 2)
    assert not checks.check_curve([0, 1, 1, 1, 1, 1], 2)


def test_tail_has_ten_samples_beyond():
    ops = [harness.Op("x", "g", float(i), 0, 0, i // 50) for i in range(100)]
    what, v = harness.tail(ops)
    assert v == 89.0 and sum(o.seconds > v for o in ops) == 10
    assert what == "p90.00 of 100 samples"


def test_tail_of_short_passes_is_median_slowest():
    # three passes of five operations: slowest 4, 9 and 14
    ops = [harness.Op("x", "g", float(i), 0, 0, i // 5) for i in range(15)]
    assert harness.tail(ops)[1] == 9.0


# -- engineered bad inputs: the program rejects them ----------------------------


def test_repeated_pair_family_rejected():
    fam = [(1, 2, 3), (4, 1, 2)]
    assert not cd.check_pair_uniqueness(fam).ok
    from catdistort.errors import PairRepetitionError

    with pytest.raises(PairRepetitionError):
        cd.PositiveEndomorphism(fam)


def test_triangle_link_rejected():
    tri = cd.LinkGraph.from_named_edges([("x", "y"), ("y", "z"), ("z", "x")])
    rep = cd.check_large_link(tri)
    assert not rep.ok and rep.combinatorial_girth == 3


def test_duplicate_image_map_rejected():
    phi = cd.PositiveEndomorphism([(1,), (1,)])
    cert = cd.certify_injective(phi)
    assert not cert.injective
    assert not checks.check_certificate(cert.graph.n_vertices, cert.graph.n_edges,
                                        2, cert.injective)


# -- the benchmark's declaration matches what it prints -------------------------


def test_benchmark_json_matches_run():
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    op = harness.Op("x", "g", 0.5, 10, 2, 0)
    e2e = harness.summarize([op], [1.0], 0.1)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        k: u for k, (_, u) in e2e.items()}


# -- one pass of the listed verify workload -------------------------------------


def test_verify_chain_pass():
    import dataclasses

    import verify

    inst = dataclasses.replace(verify.INSTANCES["verify-chain"], setup_repeats=1)
    tracer = harness.Tracer(True)
    ops, setup_times, _, layers = verify.run(inst, cd, 1, 0.0, tracer)
    # census of 2 levels, retraction, 15 certificates, link, girth,
    # separation and gluing
    assert len(ops) == 22 and len(setup_times) == 1
    assert all(o.ok and o.error is None for o in ops)
    assert sorted(o.elements for o in ops if o.kind == "certify") == [14] + [196] * 14
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert set(layers) <= {m["name"] for m in doc["per_layer"]}
    assert layers["linkgeom.link_edges"] == checks.link_edge_count(14, 14 + 14 * 196)
