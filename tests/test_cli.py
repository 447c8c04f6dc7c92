import json
import subprocess
import sys
from pathlib import Path

import pytest

from catdistort.cli import main


def run(args):
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


class TestSigma:
    def test_emit(self):
        code, out = run(["sigma", "--m", "3"])
        assert code == 0
        assert out.strip() == "a1 a1 a2 a1 a3 a2 a2 a3 a3"

    def test_t_role(self):
        code, out = run(["sigma", "--m", "2", "--role", "t"])
        assert code == 0 and out.strip() == "t1 t1 t2 t2"


class TestVerify:
    def test_block_passes(self):
        code, out = run(["verify", "--block", "1", "14", "14"])
        assert code == 0
        assert "all checks passed" in out

    def test_exit_zero_means_every_check_ok(self, tmp_path):
        rpt = tmp_path / "report.json"
        code, _ = run(["verify", "--block", "2", "28", "14",
                       "--out", str(rpt)])
        assert code == 0
        doc = json.loads(rpt.read_text())
        assert doc["ok"]
        assert all(c["status"] != "failed" for c in doc["checks"])

    def test_invalid_double_usage_error(self):
        code, _ = run(["verify", "--double", "3", "14", "14"])
        assert code == 2

    def test_chain_includes_gluing(self, tmp_path):
        rpt = tmp_path / "report.json"
        code, _ = run(["verify", "--chain", "2", "14", "--out", str(rpt)])
        assert code == 0
        doc = json.loads(rpt.read_text())
        assert any(c["name"] == "chain-gluing" for c in doc["checks"])

    def test_downscale_chain_fails_geometry(self):
        # L=2 cells cannot meet the separation contract; exit code 1
        code, out = run(["verify", "--chain", "2", "2"])
        assert code == 1
        assert "VERIFICATION FAILED" in out

    def test_missing_source(self):
        code, _ = run(["verify"])
        assert code == 2


class TestBuildAndSpec:
    def test_round_trip_via_files(self, tmp_path):
        spec_path = tmp_path / "b.json"
        code, _ = run(["build", "--block", "1", "14", "14",
                       "--out", str(spec_path)])
        assert code == 0
        code, out = run(["verify", "--spec", str(spec_path)])
        assert code == 0

    def test_downscale_block_fails_geometry(self):
        # L=2 cells are single pentagons whose link has genuine triangles
        code, out = run(["verify", "--block", "1", "2", "2"])
        assert code == 1

    def test_deterministic_output(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["build", "--chain", "2", "2", "--out", str(p1)])
        run(["build", "--chain", "2", "2", "--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_spec_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        code, _ = run(["verify", "--spec", str(p)])
        assert code == 2


class TestReduce:
    def test_forward(self):
        code, out = run(["reduce", "--block", "1", "2", "2",
                         "--word", "t1 a1 t1^-1", "--format", "text"])
        assert code == 0
        assert out.splitlines()[0] == "a1 a1"

    def test_json_trace(self):
        code, out = run(["reduce", "--block", "1", "2", "2",
                         "--word", "t1 a1 t1^-1"])
        doc = json.loads(out)
        assert doc["reduced"] == "a1 a1"
        assert doc["pinches"][0]["direction"] == "forward"

    def test_bad_token(self):
        code, _ = run(["reduce", "--block", "1", "2", "2", "--word", "zz"])
        assert code == 1  # invalid input inside a valid invocation

    def test_expansion_over_budget_exits_cap(self):
        # t^30 a t^-30 would expand to 14^30 letters; the letter budget
        # stops the sixth forward pinch (14^6 letters) before it expands.
        # The child's address space is capped so that a missing budget
        # fails the test instead of exhausting memory.
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

        word = " ".join(["t1"] * 30 + ["a1"] + ["t1^-1"] * 30)
        out = subprocess.run([sys.executable, "-m", "catdistort.cli",
                              "reduce", "--block", "1", "14", "14",
                              "--word", word],
                             capture_output=True, text=True,
                             preexec_fn=limit, timeout=120)
        assert out.returncode == 3 and out.stdout == ""
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("cap exceeded: ")


class TestBuildBudget:
    """A block of 1.96e12 square-word letters exits 3 before it allocates,
    from the command line and from a spec document alike.  The child's
    address space is capped so that a missing budget fails the test
    instead of exhausting memory."""

    def run_capped(self, args):
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

        return subprocess.run([sys.executable, "-m", "catdistort.cli"] + args,
                              capture_output=True, text=True,
                              preexec_fn=limit, timeout=120)

    def assert_cap_exit(self, out):
        assert out.returncode == 3 and out.stdout == ""
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("cap exceeded: block needs ")

    def test_verify_block(self):
        self.assert_cap_exit(self.run_capped(
            ["verify", "--block", "100000", "1400000", "14"]))

    def test_verify_spec_document(self, tmp_path):
        doc = tmp_path / "huge.json"
        doc.write_text(json.dumps({
            "format": "catdistort/1", "structure": "block",
            "params": {"n": 100000, "m": 1400000, "L": 14},
            "generators": [], "levels": [], "distinguished": {}}))
        self.assert_cap_exit(self.run_capped(["verify", "--spec", str(doc)]))


class TestBall:
    def test_small_ball(self):
        code, out = run(["ball", "--block", "1", "2", "2", "--radius", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["sizes"] == [1, 7, 37]

    def test_cap_exit_code(self):
        code, out = run(["ball", "--block", "1", "2", "2", "--radius", "4",
                         "--cap", "10"])
        assert code == 3
        assert json.loads(out)["incomplete"]


class TestDistortion:
    def test_csv(self):
        code, out = run(["distortion", "--block", "1", "2", "2",
                         "--radius", "3"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "radius,max_subgroup_length,ball_size"
        assert lines[1] == "0,0,1"
        assert lines[-1].startswith("3,")


class TestWitness:
    def test_block(self):
        code, out = run(["witness", "--block", "1", "14", "14", "--n", "3"])
        doc = json.loads(out)
        assert doc["subgroup_length"]["value"] == str(14 ** 3)
        assert doc["word_length"] == 7

    def test_double_tower(self):
        code, out = run(["witness", "--double", "9", "27", "3", "--k", "2"])
        doc = json.loads(out)
        assert doc["subgroup_length"]["value"] == str(3 ** 9)
        assert doc["bound_le_4^k"] is True

    def test_chain(self):
        code, out = run(["witness", "--chain", "2", "2", "--n", "2"])
        doc = json.loads(out)
        assert doc["stage_word_lengths"] == [5, 11]

    def test_missing_stage_arg(self):
        code, _ = run(["witness", "--block", "1", "14", "14"])
        assert code == 2

    def test_tower_word_over_budget_exits_cap(self, capsys):
        # w_30 would have 2^32 - 5 letters; the cap stops it before any
        # letter is built
        code, out = run(["witness", "--double", "9", "27", "3", "--k", "30"])
        assert code == 3 and out == ""
        assert "4294967291 letters" in capsys.readouterr().err


class TestExportDot:
    def test_stallings(self):
        code, out = run(["export-dot", "--block", "1", "2", "2",
                         "--what", "stallings"])
        assert code == 0
        assert out.startswith("digraph stallings")
        assert 'label="a1"' in out

    def test_link(self):
        code, out = run(["export-dot", "--block", "1", "2", "2",
                         "--what", "link", "--boundary-only"])
        assert code == 0
        assert out.startswith("graph link")


class TestDeterminism:
    def test_same_invocation_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            code, _ = run(["verify", "--block", "1", "14", "14",
                           "--seed", "7", "--out", str(p)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_console_script_installed(self):
        out = subprocess.run([sys.executable, "-m", "catdistort.cli",
                              "sigma", "--m", "2"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.strip() == "a1 a1 a2 a2"


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenBytes:
    """Output bytes recorded before certification moved to one-round
    folding on arrays and the link checks to edge scans; neither fast
    path may change a byte."""

    @pytest.mark.parametrize("args,name", [
        (["export-dot", "--block", "1", "14", "14", "--what", "stallings",
          "--index", "0"], "block_1_14_14_stallings_0.dot"),
        (["export-dot", "--chain", "2", "5", "--what", "stallings"],
         "chain_2_5_stallings.dot"),
        (["verify", "--chain", "2", "5", "--full"], "verify_chain_2_5_full.json"),
        # fails with a girth-2 and a distance-3 separation witness, so it
        # pins the witness bytes of both link checks
        (["verify", "--double", "25", "125", "5", "--full"],
         "verify_double_25_125_5_full.json"),
    ])
    def test_same_bytes(self, tmp_path, args, name):
        out = tmp_path / name
        run(args + ["--out", str(out)])
        assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.ladder
def test_ladder_double_289_passes(tmp_path):
    """The next ladder double after the paper's, G(289, 4913, 17): every
    check of ``verify --full`` passes.  Opt-in (``pytest -m ladder``):
    about 20 s and 2.7 GB."""
    rpt = tmp_path / "report.json"
    code, _ = run(["verify", "--double", "289", "4913", "17", "--full",
                   "--out", str(rpt)])
    doc = json.loads(rpt.read_text())
    assert code == 0 and doc["ok"]
    assert [c["status"] for c in doc["checks"]] == ["ok"] * 6
