"""CLI behaviour: exit codes, reports, dumps, reproducibility."""

import argparse
import concurrent.futures
import pathlib
import re
import subprocess
import sys

import pytest

from aapsm.cli import build_parser, main
from aapsm.generator import generate_layout
from aapsm.layout import parse_layout, serialize_layout

from conftest import cli_env


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def clean_layout_file(tmp_path):
    path = tmp_path / "clean.lay"
    layout = generate_layout(11, features=6, motif_density=0.0)
    path.write_text(serialize_layout(layout))
    return path


@pytest.fixture
def conflict_layout_file(tmp_path):
    path = tmp_path / "comb.lay"
    layout = generate_layout(12, features=8, motif_density=1.0)
    path.write_text(serialize_layout(layout))
    return path


class TestDetect:
    def test_clean_layout_zero_conflicts(self, clean_layout_file, capsys):
        code, out = run_cli(["detect", str(clean_layout_file)], capsys)
        assert code == 0
        assert "conflicts_pcg=0" in out

    def test_conflicts_detected(self, conflict_layout_file, capsys):
        code, out = run_cli(["detect", str(conflict_layout_file)], capsys)
        assert code == 0
        report = dict(l.split("=", 1) for l in out.strip().splitlines())
        assert int(report["conflicts_pcg"]) > 0
        assert int(report["conflicts_pcg"]) >= int(report["conflicts_np"])

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.lay"
        bad.write_text("rect poly zero 0 1 1\n")
        code, out = run_cli(["detect", str(bad)], capsys)
        assert code == 2
        assert "error=" in out

    def test_missing_file_exit_2(self, capsys):
        code, _ = run_cli(["detect", "/nonexistent/x.lay"], capsys)
        assert code == 2

    def test_dumps_written(self, conflict_layout_file, tmp_path, capsys):
        gdump = tmp_path / "g.txt"
        edump = tmp_path / "e.txt"
        cdump = tmp_path / "c.txt"
        code, _ = run_cli(
            [
                "detect",
                str(conflict_layout_file),
                "--dump-graph",
                str(gdump),
                "--dump-embedding",
                str(edump),
                "--dump-conflicts",
                str(cdump),
            ],
            capsys,
        )
        assert code == 0
        assert gdump.read_text().startswith("node 0 edge_shifter")
        assert "face" in edump.read_text()
        assert cdump.read_text().startswith("conflict ")

    def test_baseline_and_timing_flags(self, conflict_layout_file, capsys):
        code, out = run_cli(
            ["detect", str(conflict_layout_file), "--baseline-gb"],
            capsys,
        )
        assert code == 0
        assert "conflicts_gb=" in out

    def test_multiple_files_reports_in_order(
        self, clean_layout_file, conflict_layout_file, capsys
    ):
        code, out = run_cli(
            ["detect", str(clean_layout_file), str(conflict_layout_file)], capsys
        )
        assert code == 0
        assert out.index("design=clean") < out.index("design=comb")

    def test_rules_override(self, clean_layout_file, capsys):
        # absurdly large spacing turns the clean chain layout into a tangle
        code, out = run_cli(
            ["detect", str(clean_layout_file), "--rules", "150,200,50,200"], capsys
        )
        assert code == 0

    @pytest.mark.parametrize(
        "rules, message",
        [
            ("150,200", "--rules expects CW,SW,GAP,MS"),
            ("150,200,a,200", "--rules: invalid literal for int() with base 10: 'a'"),
            ("0,200,50,200", "critical_width must be > 0"),
            ("150,0,50,200", "shifter_width must be > 0"),
            ("150,200,-1,200", "shifter_gap must be >= 0"),
            ("150,200,50,0", "min_shifter_spacing must be > 0"),
        ],
    )
    def test_bad_rules_exit_2(self, clean_layout_file, rules, message, capsys):
        code = main(["detect", str(clean_layout_file), "--rules", rules])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error={message}\n"

    def test_bad_rules_reported_once_before_any_layout_is_read(
        self, clean_layout_file, tmp_path, capsys
    ):
        # the second input does not exist: reading it would be an error too
        missing = tmp_path / "missing.lay"
        code = main(["detect", str(clean_layout_file), str(missing), "--rules", "150,200"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error=--rules expects CW,SW,GAP,MS\n"

    def test_separation_weights(self, conflict_layout_file, capsys):
        code, out = run_cli(
            ["detect", str(conflict_layout_file), "--weights", "separation"], capsys
        )
        assert code == 0
        report = dict(l.split("=", 1) for l in out.strip().splitlines())
        assert report["weight_mode"] == "separation"
        # per-conflict weights exceed 1, so total weight >= count
        assert int(report["weight_pcg"]) >= int(report["conflicts_pcg"])


class TestCorrect:
    def test_conflicting_layout_corrected(self, conflict_layout_file, tmp_path, capsys):
        out_file = tmp_path / "fixed.lay"
        plan_file = tmp_path / "plan.txt"
        code, out = run_cli(
            [
                "correct",
                str(conflict_layout_file),
                "--out",
                str(out_file),
                "--dump-plan",
                str(plan_file),
            ],
            capsys,
        )
        assert code == 0
        report = dict(l.split("=", 1) for l in out.strip().splitlines())
        assert report["residual_conflicts"] == "0"
        assert float(report["pct_area_increase"]) > 0
        assert report["uncovered"] == "0"
        fixed = parse_layout(out_file.read_text())
        assert len(fixed.features) == len(parse_layout(conflict_layout_file.read_text()).features)
        assert plan_file.read_text().startswith("cut ")

    def test_cut_across_a_diagonal_pair_keeps_it_separated(self, tmp_path, capsys):
        # pair 5-6 is diagonal: x gap 70, y gap 84 under a 151 nm spacing.
        # The plan's h cut at y=558 moves feature 3 and not feature 2, which
        # closes the y gap to 50, so the v cut must be sized as 151 - 70
        path = tmp_path / "diagonal.lay"
        path.write_text(
            "rules 169 71 62 151\n"
            "rect poly 200 750 540 840\n"
            "rect poly 300 130 430 500\n"
            "rect poly 780 410 1250 550\n"
            "rect poly 1320 590 1490 650\n"
        )
        plan_file = tmp_path / "plan.txt"
        code, out = run_cli(
            ["correct", str(path), "--out", str(tmp_path / "fixed.lay"),
             "--dump-plan", str(plan_file)],
            capsys,
        )
        assert code == 0
        report = dict(l.split("=", 1) for l in out.strip().splitlines())
        assert (report["uncovered"], report["residual_conflicts"]) == ("0", "0")
        assert plan_file.read_text() == (
            "cut h 558 34 conflicts=0-2\ncut v 1250 81 conflicts=5-6\n"
        )

    def test_clean_layout_identity(self, clean_layout_file, tmp_path, capsys):
        out_file = tmp_path / "fixed.lay"
        code, out = run_cli(
            ["correct", str(clean_layout_file), "--out", str(out_file)], capsys
        )
        assert code == 0
        assert "pct_area_increase=0.0000" in out
        assert out_file.read_text() == clean_layout_file.read_text()

    def test_uncoverable_exit_3(self, tmp_path, capsys):
        # odd ring built from touching shifter pairs: zero gap on both axes
        # is impossible here, so force a feature-edge-only conflict instead:
        # two features whose shifters intersect in both axes
        path = tmp_path / "stuck.lay"
        path.write_text(
            "rules 150 200 0 500\n"
            "bbox -2000 -2000 4000 4000\n"
            # three verticals packed so tightly their shifters intersect
            "rect poly 0 0 100 800\n"
            "rect poly 250 0 350 800\n"
            "rect poly 500 0 600 800\n"
        )
        code, out = run_cli(["correct", str(path)], capsys)
        assert code == 3
        assert "error=" in out

    @pytest.mark.parametrize(
        "outside", ["rect poly 2000 100 3000 300", "rect metal 900 500 1100 600"]
    )
    def test_rect_outside_bbox_exit_2(self, outside, tmp_path, capsys):
        # no cut is planned here; the declared outline itself is invalid
        path = tmp_path / "outside.lay"
        path.write_text(
            "rules 150 200 50 200\n"
            "bbox 0 0 1000 1000\n"
            "rect poly 300 100 400 900\n"
            f"{outside}\n"
        )
        code, out = run_cli(["correct", str(path), "--out", str(tmp_path / "f.lay")], capsys)
        assert code == 2
        assert "error=rect 1 on layer" in out and "outside the bbox" in out
        assert not (tmp_path / "f.lay").exists()

    def test_jobs_parallel_matches_serial(
        self, clean_layout_file, conflict_layout_file, tmp_path, capsys
    ):
        args = [
            "detect",
            str(clean_layout_file),
            str(conflict_layout_file),
        ]
        _, serial = run_cli(args, capsys)
        _, parallel = run_cli(args + ["--jobs", "2"], capsys)
        assert serial == parallel


class TestOptionValidation:
    """Out-of-range numeric options exit 2 with an error= line, before any
    layout is read or written."""

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    @pytest.mark.parametrize("command", ["detect", "correct"])
    def test_jobs_below_one_rejected(
        self, command, jobs, clean_layout_file, conflict_layout_file, tmp_path, capsys
    ):
        args = [command, str(clean_layout_file), str(conflict_layout_file), "--jobs", jobs]
        if command == "correct":
            args += ["--out-dir", str(tmp_path / "fixed")]
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error=--jobs must be at least 1, got {jobs}\n"
        assert not (tmp_path / "fixed").exists()

    def test_out_with_out_dir_rejected(self, conflict_layout_file, tmp_path, capsys):
        out_file, out_dir = tmp_path / "x.fixed", tmp_path / "fixed"
        before = sorted(tmp_path.rglob("*"))
        code = main(
            ["correct", str(conflict_layout_file), "--out", str(out_file),
             "--out-dir", str(out_dir)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error=--out and --out-dir are exclusive; give one\n"
        assert not out_file.exists() and not out_dir.exists()
        assert sorted(tmp_path.rglob("*")) == before

    def test_out_with_several_inputs_rejected(
        self, clean_layout_file, conflict_layout_file, tmp_path, capsys
    ):
        out_file = tmp_path / "x.fixed"
        code = main(
            ["correct", str(clean_layout_file), str(conflict_layout_file), "--out", str(out_file)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error=--out needs a single input; use --out-dir\n"
        assert not out_file.exists()

    def test_boundary_values_accepted(self, conflict_layout_file, tmp_path, capsys):
        out_file = tmp_path / "fixed.lay"
        code, _ = run_cli(
            ["correct", str(conflict_layout_file), "--jobs", "1", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        assert out_file.exists()


class TestStemCollisions:
    """Several inputs write --out-dir and --dump-* outputs named by their
    stems; two inputs with one stem exit 2 before anything is written."""

    @pytest.fixture
    def same_stem_files(self, tmp_path):
        text = serialize_layout(generate_layout(12, features=8, motif_density=1.0))
        paths = [tmp_path / "a" / "x.lay", tmp_path / "b" / "x.lay"]
        for path in paths:
            path.parent.mkdir()
            path.write_text(text)
        return paths

    @pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]])
    @pytest.mark.parametrize("command, flag", [("detect", "--dump-graph"), ("correct", "--out-dir")])
    def test_shared_stem_rejected(self, command, flag, jobs, same_stem_files, tmp_path, capsys):
        target = tmp_path / "out"
        before = sorted(tmp_path.rglob("*"))
        code = main([command, *map(str, same_stem_files), flag, str(target), *jobs])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        first, second = same_stem_files
        assert captured.err == (
            f"error=inputs {first} and {second} share the stem x; "
            "their outputs would collide\n"
        )
        assert sorted(tmp_path.rglob("*")) == before

    def test_distinct_stems_accepted(self, clean_layout_file, conflict_layout_file, tmp_path, capsys):
        code, _ = run_cli(
            ["correct", str(clean_layout_file), str(conflict_layout_file),
             "--out-dir", str(tmp_path / "fixed")],
            capsys,
        )
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "fixed").iterdir()) == ["clean.fixed", "comb.fixed"]


class TestFileErrors:
    """A path that cannot be read or written exits 2 with an error= line
    naming it, never a traceback."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("detect", "--dump-graph"),
            ("detect", "--dump-embedding"),
            ("detect", "--dump-conflicts"),
            ("correct", "--dump-plan"),
            ("correct", "--out"),
        ],
    )
    def test_unwritable_output(self, command, flag, conflict_layout_file, tmp_path, capsys):
        target = tmp_path / "missing" / "x.txt"
        code, out = run_cli([command, str(conflict_layout_file), flag, str(target)], capsys)
        assert code == 2
        assert f"error=cannot write {target}: " in out

    def test_unwritable_default_fixed_output(self, conflict_layout_file, capsys):
        target = conflict_layout_file.with_name(conflict_layout_file.name + ".fixed")
        target.mkdir()
        code, out = run_cli(["correct", str(conflict_layout_file)], capsys)
        assert code == 2
        assert f"error=cannot write {target}: " in out

    def test_out_dir_that_cannot_be_made(self, conflict_layout_file, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out_dir = blocker / "fixed"
        code, out = run_cli(
            ["correct", str(conflict_layout_file), "--out-dir", str(out_dir)], capsys
        )
        assert code == 2
        assert f"error=cannot write {out_dir / 'comb.fixed'}: " in out

    def test_out_dir_file_that_cannot_be_written(self, conflict_layout_file, tmp_path, capsys):
        target = tmp_path / "fixed" / "comb.fixed"
        target.mkdir(parents=True)
        code, out = run_cli(
            ["correct", str(conflict_layout_file), "--out-dir", str(tmp_path / "fixed")], capsys
        )
        assert code == 2
        assert f"error=cannot write {target}: " in out

    def test_generate_unwritable_out(self, tmp_path, capsys):
        target = tmp_path / "missing" / "g.lay"
        code = main(["generate", "--seed", "1", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error=cannot write {target}: ")

    def test_layout_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "binary.lay"
        path.write_bytes(b"rect poly 0 0 \xff\xfe 1\n")
        code, out = run_cli(["detect", str(path)], capsys)
        assert code == 2
        assert f"error=cannot read {path}: " in out

    def test_repeated_rules_record(self, tmp_path, capsys):
        path = tmp_path / "twice.lay"
        path.write_text("rules 150 200 50 200\nrect poly 0 0 100 800\nrules 300 200 50 200\n")
        code, out = run_cli(["detect", str(path)], capsys)
        assert code == 2
        assert "error=line 3: repeated rules record (first on line 1)" in out


class TestJobs:
    def test_workers_capped_at_file_count(
        self, clean_layout_file, conflict_layout_file, monkeypatch, capsys
    ):
        """Tasks run inline in a recording stand-in, so no process starts;
        the pool is asked for spawned workers."""
        built = []

        class InlineExecutor:
            def __init__(self, max_workers, mp_context):
                assert mp_context.get_start_method() == "spawn"
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        args = ["detect", str(clean_layout_file), str(conflict_layout_file)]
        code, parallel = run_cli(args + ["--jobs", "8"], capsys)
        assert code == 0
        assert built == [2]
        assert parallel == run_cli(args, capsys)[1]


class TestGenerate:
    def test_generate_to_stdout(self, capsys):
        code, out = run_cli(["generate", "--seed", "5", "--features", "6"], capsys)
        assert code == 0
        assert out.startswith("rules ")

    def test_generate_deterministic(self, capsys):
        _, a = run_cli(["generate", "--seed", "5", "--features", "6"], capsys)
        _, b = run_cli(["generate", "--seed", "5", "--features", "6"], capsys)
        assert a == b

    def test_generate_bad_params_exit_2(self, capsys):
        code, _ = run_cli(
            ["generate", "--seed", "1", "--features", "0"], capsys
        )
        assert code == 2

    def test_python_m_aapsm_runs_the_cli(self, capsys):
        args = ["generate", "--seed", "1", "--features", "5"]
        run = subprocess.run(
            [sys.executable, "-m", "aapsm", *args], capture_output=True, text=True, env=cli_env()
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == run_cli(args, capsys)[1]


class TestSubprocessReproducibility:
    def test_detect_bytes_stable_across_processes(self, tmp_path):
        layout_path = tmp_path / "d.lay"
        layout = generate_layout(42, features=10, motif_density=0.7)
        layout_path.write_text(serialize_layout(layout))
        cmd = [
            sys.executable,
            "-m",
            "aapsm.cli",
            "detect",
            str(layout_path),
            "--baseline-gb",
        ]
        runs = [
            subprocess.run(cmd, capture_output=True, text=True, env=cli_env())
            for _ in range(2)
        ]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout


def test_readme_cli_flags_accepted():
    """Every --flag that README's CLI section names is accepted by some
    subcommand, and each --prefix-* wildcard matches at least one flag."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*\*?", section))
    (subparsers,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    accepted = {flag for p in subparsers.choices.values() for flag in p._option_string_actions}
    flags = {f for f in named if not f.endswith("*")}
    assert len(flags) >= 10
    assert flags <= accepted, sorted(flags - accepted)
    for wildcard in named - flags:
        assert any(flag.startswith(wildcard[:-1]) for flag in accepted), wildcard
