import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_negative_count_is_named(self, capsys):
        code, _ = run(["sigma", "--m", "-5"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: sigma needs at least 2 letters, got -5\n")


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

    def test_report_path_is_a_directory(self, tmp_path, capsys):
        code, _ = run(["verify", "--block", "1", "2", "2",
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


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

    def test_spec_path_is_a_directory(self, tmp_path, capsys):
        code, _ = run(["build", "--spec", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

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

    def test_position_counts_from_the_start_of_the_word(self):
        # the level-1 opener a1^(1) follows t1, which survives level 0
        code, out = run(["reduce", "--chain", "2", "5", "--word",
                         "t1 a1^(1) a2^(2) a1^(1)^-1"])
        assert code == 0
        [pinch] = json.loads(out)["pinches"]
        assert (pinch["level"], pinch["position"]) == (1, 1)

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
    from the command line and from a spec document alike, and so do
    oversize chains and sigma words.  The child's address space is
    capped so that a missing budget fails the test instead of exhausting
    memory."""

    def run_capped(self, args):
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

        return subprocess.run([sys.executable, "-m", "catdistort.cli"] + args,
                              capture_output=True, text=True,
                              preexec_fn=limit, timeout=120)

    def assert_cap_exit(self, out, structure="block"):
        assert out.returncode == 3 and out.stdout == ""
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith(f"cap exceeded: {structure} needs ")

    def test_verify_block(self):
        self.assert_cap_exit(self.run_capped(
            ["verify", "--block", "100000", "1400000", "14"]))

    def test_verify_chain(self):
        # 41,371 generators; 2.95e9 letters
        self.assert_cap_exit(self.run_capped(
            ["verify", "--chain", "4", "14"]), "chain")

    def test_verify_deep_chain(self):
        # the letter count has far more than 4,300 digits
        self.assert_cap_exit(self.run_capped(
            ["verify", "--chain", "10000", "14"]), "chain")

    def test_sigma(self):
        # 10^8 letters; the largest word emitted is 8192^2 = 2^26 letters
        self.assert_cap_exit(self.run_capped(
            ["sigma", "--m", "10000"]), "sigma")

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

    @pytest.mark.parametrize("argv,letters", [
        (["--block", "1", "14", "14", "--n", str(2 ** 21)], 2 ** 22 + 1),
        (["--chain", "2", "14", "--n", str(2 ** 20)], 2 ** 22 + 3),
        # 2^20002 letters has more decimal digits than str() may print
        (["--double", "9", "27", "3", "--k", "20000"], "over 2^62"),
    ], ids=["block", "chain", "tower-beyond-str"])
    def test_witness_words_over_budget_exit_cap(self, argv, letters, capsys):
        code, out = run(["witness"] + argv)
        assert code == 3 and out == ""
        assert f"{letters} letters" in capsys.readouterr().err


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


class TestRemovedFlags:
    """``--scheme`` admitted one value and ``--seed`` was only echoed
    into the report; both are usage errors now."""

    @pytest.mark.parametrize("args", [
        ["verify", "--block", "1", "2", "2", "--scheme", "ladder"],
        ["verify", "--block", "1", "2", "2", "--seed", "7"],
        ["export-dot", "--block", "1", "2", "2", "--what", "link",
         "--scheme", "ladder"],
    ], ids=["verify-scheme", "verify-seed", "export-dot-scheme"])
    def test_exits_usage(self, capsys, args):
        code, _ = run(args)
        err = capsys.readouterr().err
        assert code == 2
        assert "unrecognized arguments" in err and "Traceback" not in err


COMMANDS = ["sigma", "build", "verify", "reduce", "ball", "distortion",
            "witness", "export-dot"]
FLAGS = ["--m", "--role", "--block", "--chain", "--double", "--spec",
         "--full", "--out", "--word", "--format", "--radius", "--cap", "--n",
         "--k", "--what", "--level", "--index", "--boundary-only"]
#: malformed tokens, next to the few words some flags accept
WORDS = ["", "-", "--", "--nope", "x", "1.5", "-0", "1e3", "zz", "a1 t1^-1",
         "a", "t", "json", "text", "stallings", "link"]
#: valid invocations on small groups, which the fuzz then edits
SEEDS = [
    ["sigma", "--m", "3"],
    ["build", "--block", "1", "2", "2", "--out", "spec.json"],
    ["verify", "--spec", "spec.json", "--out", "report.json"],
    ["verify", "--chain", "2", "2"],
    ["reduce", "--block", "1", "2", "2", "--word", "t1 a1 t1^-1"],
    ["ball", "--block", "1", "2", "2", "--radius", "1"],
    ["distortion", "--block", "1", "2", "2", "--radius", "1"],
    ["witness", "--block", "1", "2", "2", "--n", "2"],
    ["export-dot", "--block", "1", "2", "2", "--what", "link"],
]


@st.composite
def argvs(draw):
    """A seed invocation with up to three tokens replaced, inserted or
    deleted; new tokens are subcommands, flags, small ints, malformed
    words, a directory ``<dir>`` or a missing path ``<missing>``."""
    token = st.one_of(st.sampled_from(COMMANDS + FLAGS), st.sampled_from(WORDS),
                      st.integers(-2, 6).map(str),
                      st.sampled_from(["<dir>", "<missing>"]))
    argv = list(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(0, 3))):
        # counted from the end, where the seeds hold their values
        i = len(argv) - draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(token))
        elif edit == "replace":
            argv[i] = draw(token)
        else:
            del argv[i]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    assert run(["build", "--block", "1", "2", "2",
                "--out", str(path / "spec.json")])[0] == 0
    return path


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=argvs())
def test_fuzzed_argv_exits_with_a_documented_code(fuzz_dir, argv):
    """Random argv over the real subcommands and flags ends in exit 0, 1,
    2 or 3, never an exception.  ``<dir>`` is a directory and
    ``<missing>`` a path under a missing one; the run is in a scratch
    directory, since ``--out x`` writes ``x``."""
    paths = {"<dir>": str(fuzz_dir), "<missing>": str(fuzz_dir / "no" / "doc")}
    argv = [paths.get(a, a) for a in argv]
    cwd = os.getcwd()
    os.chdir(fuzz_dir)
    try:
        code, _ = run(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 3), argv


class TestDeterminism:
    def test_same_invocation_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            code, _ = run(["verify", "--block", "1", "14", "14",
                           "--out", str(p)])
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
    folding on arrays, the link checks to edge scans and the reducer to
    one flat stack over global letter ids; none of these may change a
    byte.  ``reduce_chain_2_5.json`` was re-recorded once, when pinch
    positions below level 0 started counting from the start of the
    word."""

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
        # pinches at level 0 (position 1) and at level 1 (position 4)
        (["reduce", "--double", "9", "27", "3", "--word",
          "a2 s a1 s^-1 t1 a3 t1^-1 s^-1 t1 t1 t1 s a4"],
         "reduce_double_9_27_3.json"),
        # forward pinches at both levels and a backward one at level 1;
        # positions count the letters before the opener in the whole word
        (["reduce", "--chain", "2", "5", "--word",
          "a5^(2) t1 a1^(1) t1^-1 a1^(2) a3^(1)^-1 t1 a2^(1)^-1 a6^(2) "
          "a4^(2) a7^(2) a4^(2) a8^(2) a2^(1)"], "reduce_chain_2_5.json"),
        (["build", "--block", "1", "2", "2"], "build_block_1_2_2.json"),
        (["witness", "--double", "9", "27", "3", "--k", "2"],
         "witness_double_9_27_3_k2.json"),
    ])
    def test_same_bytes(self, tmp_path, args, name):
        out = tmp_path / name
        run(args + ["--out", str(out)])
        assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.ladder
def test_paper_chain_verify_peak(tmp_path):
    """``verify --chain 3 14 --full`` in a child: the same report bytes,
    with one link alive at a time (about 755 MB; two links made 1,167 MB).
    A fresh probe process runs the child and reads its peak, so that no
    earlier child of the test process counts.  Opt-in (``pytest -m
    ladder``): about 5 s."""
    probe = ("import resource, subprocess, sys\n"
             "code = subprocess.run([sys.executable, '-m', 'catdistort.cli']"
             " + sys.argv[1:]).returncode\n"
             "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    rpt = tmp_path / "report.json"
    out = subprocess.run([sys.executable, "-c", probe, "verify", "--chain",
                          "3", "14", "--full", "--out", str(rpt)],
                         capture_output=True, text=True, timeout=600)
    code, peak_kb = map(int, out.stdout.split()[-2:])
    peak_mb = peak_kb / 1024
    assert code == 0, out.stderr
    assert hashlib.md5(rpt.read_bytes()).hexdigest() == \
        "5775782a0a2952589d2d66f8d28c46f2"
    assert peak_mb < 900


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
