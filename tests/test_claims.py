"""The paper-claims registry, read as text: nothing here simulates.

``benchmarks/test_paper_claims.py`` runs the claims; these tests pin
that the registry, ``benchmarks/out`` and EXPERIMENTS.md state each
claim exactly once and agree with each other.
"""

import collections
import dataclasses
import os

from repro.bench.claims import (
    CLAIMS,
    EXPERIMENTS_MD,
    Claim,
    claim_blocks,
    each,
    run,
    write_claim_block,
)
from repro.bench.experiments import Fig7Cell
from repro.bench.harness import RESULTS_DIR
from repro.cli import main
from repro.graph.datasets import DATASET_NAMES


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


class TestRegistry:
    def test_experiments_blocks_equal_out_files(self):
        blocks = claim_blocks(_read(EXPERIMENTS_MD))
        assert list(blocks) == list(CLAIMS)
        for claim in CLAIMS.values():
            out = _read(os.path.join(RESULTS_DIR, claim.out + ".txt"))
            assert blocks[claim.id] == out, claim.id

    def test_every_out_file_belongs_to_exactly_one_claim(self):
        owners = collections.Counter(c.out for c in CLAIMS.values())
        files = {
            f[:-len(".txt")] for f in os.listdir(RESULTS_DIR)
            if f.endswith(".txt")
        }
        assert set(owners) == files
        assert all(n == 1 for n in owners.values())

    def test_check_count_and_names(self):
        # Every paper-shape assertion is one named check; dropping or
        # merging one must show up here.
        assert sum(len(c.checks) for c in CLAIMS.values()) == 74
        for claim in CLAIMS.values():
            names = [check.name for check in claim.checks]
            assert len(names) == len(set(names)), claim.id


class TestRuns:
    def test_equal_runs_share_one_result(self):
        calls = []

        def experiment(k):
            calls.append(k)
            return {"k": k}

        assert run(experiment, k=1)() is run(experiment, k=1)()
        run(experiment, k=2)()
        assert calls == [1, 2]


class TestOOMCells:
    def test_time_checks_fail_on_oom_instead_of_raising(self):
        # DGL and ours both run out of memory on arxiv: every check that
        # compares their times must report arxiv, not raise.
        times = {"dgl": 2.0, "pyg": 3.0, "roc": 3.0, "ours": 1.0}
        grid = {model: {f: {d: Fig7Cell(None if d == "arxiv" else t)
                            for d in DATASET_NAMES}
                        for f, t in times.items()}
                for model in ("gcn", "gat", "sage_lstm")}
        oom = run(lambda: grid)
        failed = {
            cid: dict(dataclasses.replace(CLAIMS[cid], experiment=oom)
                      .evaluate()[1])
            for cid in ("fig7_gcn", "fig7_gat", "fig7_sage_lstm")
        }
        assert failed["fig7_gcn"]["dgl_never_oom"] == ("arxiv",)
        for cid in failed:
            assert failed[cid]["ours_beats_dgl"] == ("arxiv",), cid
        assert "roc_slower_than_dgl_where_it_runs" not in failed["fig7_gcn"]
        assert "arxiv" in failed["fig7_gat"]["gat_gap_exceeds_gcn_gap"]
        assert "avg_speedup_1.15_to_1.8x" in failed["fig7_sage_lstm"]


class TestBlocks:
    def test_write_claim_block_replaces_only_its_block(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "prose\n<!-- claim: a -->\n```\nold a\n```\n<!-- /claim -->\n"
            "<!-- claim: b -->\n```\nold b\n```\n<!-- /claim -->\n"
        )
        write_claim_block("a", "new a\nline 2", str(doc))
        assert claim_blocks(doc.read_text()) == {
            "a": "new a\nline 2\n", "b": "old b\n",
        }


class TestPaperCommand:
    def test_failing_check_exits_1_and_is_named(self, capsys, monkeypatch):
        stub = Claim(
            "stub", "stub", run(lambda: {"x": 1.0}), "stub table", ("x",),
            lambda r, paper: [[r["x"]]], checks=(
                each("x_positive", lambda x: x > 0, ("x",)),
                each("x_above_two", lambda x: x > 2, ("x",)),
            ),
        )
        monkeypatch.setattr("repro.bench.claims.CLAIMS", {"stub": stub})
        assert main(["paper", "stub"]) == 1
        out = capsys.readouterr().out
        assert "stub table" in out
        assert "stub: check x_above_two fails on x" in out
        assert "x_positive" not in out
