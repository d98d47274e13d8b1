"""`tools/fuzz_correct.py` as a smoke gate on `correct`: over seeds 0-1999
no pair that a planned cut covers ends below the spacing (ROADMAP item 12's
first fault), and no seed ends in an internal fault or any other exception.

A compliant pair brought below the spacing by a cut between two features
(item 12's second fault), and a design that covers every conflict yet keeps
a residual, are still open; their counts are ratcheted at what `correct`
does today (11 and 1 designs).  A change that makes either more frequent
must raise its bound and say why.
"""

import logging

from conftest import tool_module


def test_fuzz_seeds_keep_the_covered_pairs_apart(caplog):
    caplog.set_level(logging.ERROR, logger="aapsm")  # no clip warnings
    fuzz = tool_module("fuzz_correct")
    counts, seeds_of = fuzz.fuzz(range(2000))
    print(dict(counts), {name: seeds_of[name][:10] for name in ("fault2", "covered_residual")})
    assert counts["designs"] + counts["rejected"] == 2000
    assert counts["designs"] > 1000
    assert {name: seeds_of[name] for name in fuzz.GATED} == {name: [] for name in fuzz.GATED}
    assert counts["fault2"] <= 11 and counts["covered_residual"] <= 1, dict(counts)


def test_main_prints_every_count_and_fails_on_a_gated_one(capsys, caplog, monkeypatch):
    caplog.set_level(logging.ERROR, logger="aapsm")  # restores what main sets
    fuzz = tool_module("fuzz_correct")
    assert fuzz.main(["0", "10"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split("=")[0] for line in out] == list(fuzz.COUNTS)
    monkeypatch.setattr(fuzz, "run_seed", lambda seed: {"designs", "fault1"})
    assert fuzz.main(["5", "7"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "fault1=2" in out and out[-1] == "fault1_seeds=5,6"
    assert fuzz.main(["0"]) == 2
