"""Command-line driver: detect, correct, generate.

Exit codes: 0 success, 2 input error, 3 uncorrectable conflicts present,
4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import pathlib
import sys

from .conflict_graph import WEIGHT_SEPARATION, WEIGHT_UNIFORM, dump_graph
from .errors import AapsmError, EXIT_INPUT_ERROR, EXIT_OK
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
    p_correct.add_argument("--exact-cover-limit", type=int, default=20)

    p_gen = sub.add_parser("generate", help="emit a synthetic layout")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--features", type=int, default=20)
    p_gen.add_argument("--density", type=float, default=0.5, help="conflict motif density in [0,1]")
    p_gen.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    return parser


def _parse_rules(spec: str) -> DesignRules:
    parts = spec.split(",")
    if len(parts) != 4:
        raise _input_error("--rules expects CW,SW,GAP,MS")
    try:
        cw, sw, gap, ms = (int(p) for p in parts)
    except ValueError as exc:
        raise _input_error(f"--rules: {exc}") from exc
    return DesignRules(cw, sw, gap, ms)


def _input_error(message: str) -> AapsmError:
    err = AapsmError(message)
    err.exit_code = EXIT_INPUT_ERROR
    return err


def _dump_path(base: str, stem: str, many: bool) -> pathlib.Path:
    path = pathlib.Path(base)
    return path.with_name(f"{path.name}.{stem}") if many else path


def _run_one(path_str: str, args: argparse.Namespace) -> tuple[int, str]:
    """Process one layout file; returns (exit code, report text)."""
    path = pathlib.Path(path_str)
    many = len(args.layouts) > 1
    try:
        try:
            text = path.read_text()
        except OSError as exc:
            raise _input_error(f"cannot read {path}: {exc}") from exc
        layout = parse_layout(text)
        if args.rules:
            layout = dataclasses.replace(layout, rules=_parse_rules(args.rules))

        detection = detect(
            layout,
            design_name=path.stem,
            weight_mode=args.weights,
            run_greedy_baseline=args.baseline_gb,
        )
        if args.dump_graph:
            _dump_path(args.dump_graph, path.stem, many).write_text(
                dump_graph(detection.graph)
            )
        if args.dump_embedding:
            _dump_path(args.dump_embedding, path.stem, many).write_text(
                dump_embedding(detection.embedding)
            )
        if args.dump_conflicts:
            lines = []
            for c in detection.conflicts.conflicts:
                req = "-" if c.required_separation is None else str(c.required_separation)
                lines.append(
                    f"conflict {c.edge_id} {c.shifter_pair[0]} {c.shifter_pair[1]} "
                    f"{req} {c.origin}"
                )
            _dump_path(args.dump_conflicts, path.stem, many).write_text(
                "\n".join(lines) + "\n" if lines else ""
            )

        if args.command == "detect":
            return EXIT_OK, render_report(detection.report)

        correction = correct(detection, exact_cover_limit=args.exact_cover_limit)
        if args.dump_plan:
            _dump_path(args.dump_plan, path.stem, many).write_text(
                dump_plan(correction.plan)
            )
        out_text = serialize_layout(correction.new_layout)
        if args.out_dir:
            out_dir = pathlib.Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{path.stem}.fixed").write_text(out_text)
        elif args.out:
            pathlib.Path(args.out).write_text(out_text)
        else:
            path.with_suffix(path.suffix + ".fixed").write_text(out_text)
        return EXIT_OK, render_report(correction.report)
    except AapsmError as exc:
        return exc.exit_code, f"design={path.stem}\nerror={exc}\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "generate":
        try:
            layout = generate_layout(args.seed, args.features, args.density)
        except (ValueError, AapsmError) as exc:
            print(f"error={exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        text = serialize_layout(layout)
        if args.out:
            pathlib.Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK

    if args.command == "correct" and len(args.layouts) > 1 and args.out:
        print("error=--out needs a single input; use --out-dir", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.jobs < 1:
        print(f"error=--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.command == "correct" and args.exact_cover_limit < 0:
        print(
            f"error=--exact-cover-limit must be non-negative, got {args.exact_cover_limit}",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR

    results: list[tuple[int, str]]
    if args.jobs > 1 and len(args.layouts) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [
                pool.submit(_run_one, p, args) for p in args.layouts
            ]
            results = [f.result() for f in futures]
    else:
        results = [_run_one(p, args) for p in args.layouts]

    code = EXIT_OK
    for idx, (rc, text) in enumerate(results):
        if idx:
            sys.stdout.write("\n")
        sys.stdout.write(text)
        code = max(code, rc)
    return code


if __name__ == "__main__":
    sys.exit(main())
