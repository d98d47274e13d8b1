"""Golden reports: detect/correct output must stay byte-identical.

`golden_reports.txt` holds, for a few generated designs, the CLI `detect`
report (greedy baseline on), the `--dump-conflicts` lines, and the `correct`
report, and the `--dump-embedding` faces of every design.  The rows designs
(density 0) two-color, so `detect` embeds their conflict graph only when
asked; the density-0.7 designs' faces pin the embedding the T-join reads.
Section headers still name the `generalized` gadget shape that every
report echoes as `gadget_mode`.  Regenerate it only for an intended output
change:

    PYTHONPATH=src python tests/test_golden_reports.py > tests/golden_reports.txt
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import tempfile

from aapsm.cli import main
from aapsm.generator import generate_layout
from aapsm.layout import serialize_layout
from aapsm.tjoin import MODE_GENERALIZED

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.txt")
DESIGNS = [(seed, n, density) for seed in (1, 2) for n, density in ((12, 0.7), (30, 0.0))]


def _cli(args: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return f"exit={code}\n" + out.getvalue()


def golden_text() -> str:
    chunks = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed, n, density in DESIGNS:
            name = f"s{seed}_n{n}_d{density}"
            lay = pathlib.Path(tmp, f"{name}.lay")
            lay.write_text(serialize_layout(generate_layout(seed, n, density)))
            dump = pathlib.Path(tmp, f"{name}.conflicts")
            faces = pathlib.Path(tmp, f"{name}.faces")
            args = [
                "detect", str(lay), "--baseline-gb", "--dump-conflicts", str(dump),
                "--dump-embedding", str(faces),
            ]
            chunks.append(f"## {name} detect {MODE_GENERALIZED}\n")
            chunks.append(_cli(args))
            chunks.append(f"## {name} conflicts {MODE_GENERALIZED}\n" + dump.read_text())
            chunks.append(f"## {name} embedding\n" + faces.read_text())
            chunks.append(f"## {name} correct\n")
            chunks.append(_cli(["correct", str(lay), "--out", str(lay) + ".fixed"]))
    return "".join(chunks)


def test_reports_match_golden():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    print(golden_text(), end="")
