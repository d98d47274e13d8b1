"""Command-line driver: detect, correct, generate.

Exit codes: 0 success, 2 input error, 3 uncorrectable conflicts present,
4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import multiprocessing
import pathlib
import sys

from .conflict_graph import WEIGHT_SEPARATION, WEIGHT_UNIFORM, dump_graph
from .errors import AapsmError, EXIT_INPUT_ERROR, EXIT_OK, InputError, LayoutValidationError
from .generator import generate_layout
from .layout import DesignRules, parse_layout, serialize_layout
from .pipeline import correct, detect, render_report
from .planar import dump_embedding
from .spacing import dump_plan


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aapsm",
        description="AAPSM phase-conflict detection and layout correction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("layouts", nargs="+", help="layout files")
        p.add_argument(
            "--rules",
            metavar="CW,SW,GAP,MS",
            help="override design rules: critical_width,shifter_width,"
            "shifter_gap,min_shifter_spacing (nm)",
        )
        p.add_argument(
            "--weights",
            choices=(WEIGHT_UNIFORM, WEIGHT_SEPARATION),
            default=WEIGHT_UNIFORM,
        )
        p.add_argument("--baseline-gb", action="store_true", help="run the greedy baseline")
        p.add_argument("--dump-graph", metavar="PATH")
        p.add_argument("--dump-embedding", metavar="PATH")
        p.add_argument("--dump-conflicts", metavar="PATH")
        p.add_argument("--jobs", type=int, default=1, help="process input files in parallel")

    p_detect = sub.add_parser("detect", help="detect AAPSM conflicts")
    add_common(p_detect)

    p_correct = sub.add_parser("correct", help="detect and correct by inserting spaces")
    add_common(p_correct)
    p_correct.add_argument("--out", metavar="PATH", help="corrected layout (single input)")
    p_correct.add_argument("--out-dir", metavar="DIR", help="corrected layouts (multiple inputs)")
    p_correct.add_argument("--dump-plan", metavar="PATH")

    p_gen = sub.add_parser("generate", help="emit a synthetic layout")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--features", type=int, default=20)
    p_gen.add_argument("--density", type=float, default=0.5, help="conflict motif density in [0,1]")
    p_gen.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    return parser


def _parse_rules(spec: str) -> DesignRules:
    parts = spec.split(",")
    if len(parts) != 4:
        raise InputError("--rules expects CW,SW,GAP,MS")
    try:
        cw, sw, gap, ms = (int(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"--rules: {exc}") from exc
    return DesignRules(cw, sw, gap, ms)


def _dump_path(base: str, stem: str, many: bool) -> pathlib.Path:
    path = pathlib.Path(base)
    return path.with_name(f"{path.name}.{stem}") if many else path


def _write(path: pathlib.Path, text: str, make_parent: bool = False) -> None:
    """Write an output file; a path that cannot be written is an input error."""
    try:
        if make_parent:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _run_one(
    path_str: str, args: argparse.Namespace, rules: DesignRules | None
) -> tuple[int, str]:
    """Process one layout file, under `rules` when given instead of the
    file's own; returns (exit code, report text)."""
    path = pathlib.Path(path_str)
    many = len(args.layouts) > 1
    try:
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        layout = parse_layout(text)
        if rules is not None:
            layout = dataclasses.replace(layout, rules=rules)

        detection = detect(
            layout,
            design_name=path.stem,
            weight_mode=args.weights,
            run_greedy_baseline=args.baseline_gb,
        )
        if args.dump_graph:
            _write(_dump_path(args.dump_graph, path.stem, many), dump_graph(detection.graph))
        if args.dump_embedding:
            _write(
                _dump_path(args.dump_embedding, path.stem, many),
                dump_embedding(detection.embedding),
            )
        if args.dump_conflicts:
            lines = []
            for c in detection.conflicts.conflicts:
                req = "-" if c.required_separation is None else str(c.required_separation)
                lines.append(
                    f"conflict {c.edge_id} {c.shifter_pair[0]} {c.shifter_pair[1]} "
                    f"{req} {c.origin}"
                )
            _write(
                _dump_path(args.dump_conflicts, path.stem, many),
                "\n".join(lines) + "\n" if lines else "",
            )

        if args.command == "detect":
            return EXIT_OK, render_report(detection.report)

        correction = correct(detection)
        if args.dump_plan:
            _write(_dump_path(args.dump_plan, path.stem, many), dump_plan(correction.plan))
        if args.out_dir:
            out_path = pathlib.Path(args.out_dir) / f"{path.stem}.fixed"
        elif args.out:
            out_path = pathlib.Path(args.out)
        else:
            out_path = path.with_suffix(path.suffix + ".fixed")
        _write(
            out_path, serialize_layout(correction.new_layout), make_parent=bool(args.out_dir)
        )
        return EXIT_OK, render_report(correction.report)
    except AapsmError as exc:
        return exc.exit_code, f"design={path.stem}\nerror={exc}\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "generate":
        try:
            text = serialize_layout(generate_layout(args.seed, args.features, args.density))
            if args.out:
                _write(pathlib.Path(args.out), text)
        except (ValueError, AapsmError) as exc:
            print(f"error={exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        if not args.out:
            sys.stdout.write(text)
        return EXIT_OK

    if args.command == "correct" and len(args.layouts) > 1 and args.out:
        print("error=--out needs a single input; use --out-dir", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.command == "correct" and args.out and args.out_dir:
        print("error=--out and --out-dir are exclusive; give one", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.jobs < 1:
        print(f"error=--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        rules = _parse_rules(args.rules) if args.rules else None
    except (InputError, LayoutValidationError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    # with several inputs, --out-dir and --dump-* name each output by its
    # input's stem, so two inputs with one stem would write the same files
    per_stem_outputs = ("out_dir", "dump_graph", "dump_embedding", "dump_conflicts", "dump_plan")
    if len(args.layouts) > 1 and any(getattr(args, flag, None) for flag in per_stem_outputs):
        by_stem: dict[str, str] = {}
        for path_str in args.layouts:
            stem = pathlib.Path(path_str).stem
            if stem in by_stem:
                print(
                    f"error=inputs {by_stem[stem]} and {path_str} share the stem "
                    f"{stem}; their outputs would collide",
                    file=sys.stderr,
                )
                return EXIT_INPUT_ERROR
            by_stem[stem] = path_str

    results: list[tuple[int, str]]
    if args.jobs > 1 and len(args.layouts) > 1:
        workers = min(args.jobs, len(args.layouts))
        # spawned workers start clean: forking a process that may hold
        # threads can copy a lock some other thread held
        spawn = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            futures = [
                pool.submit(_run_one, p, args, rules) for p in args.layouts
            ]
            results = [f.result() for f in futures]
    else:
        results = [_run_one(p, args, rules) for p in args.layouts]

    code = EXIT_OK
    for idx, (rc, text) in enumerate(results):
        if idx:
            sys.stdout.write("\n")
        sys.stdout.write(text)
        code = max(code, rc)
    return code


if __name__ == "__main__":
    sys.exit(main())
