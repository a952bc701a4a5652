"""Tests for the CLI and the NeuGraph framework extension."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.frameworks import DGLLike, NeuGraphLike, NotSupported, all_frameworks
from repro.frameworks import make_features
from repro.gpusim import V100_SCALED
from repro.graph import small_dataset
from repro.models import GCNConfig


class TestNeuGraph:
    @pytest.fixture(scope="class")
    def g(self):
        return small_dataset()

    def test_gcn_runs(self, g):
        res = NeuGraphLike().run_gcn(
            g, GCNConfig(dims=(32, 16, 8)), V100_SCALED
        )
        assert res.time_ms > 0

    def test_semantics_match_dgl(self, g):
        cfg = GCNConfig(dims=(32, 16, 8))
        feat = make_features(g, 32, seed=0)
        a = DGLLike().run_gcn(
            g, cfg, V100_SCALED, compute=True, feat=feat
        ).output
        b = NeuGraphLike().run_gcn(
            g, cfg, V100_SCALED, compute=True, feat=feat
        ).output
        assert np.allclose(a, b, atol=1e-4)

    def test_streaming_makes_it_slower_than_dgl(self, g):
        cfg = GCNConfig()
        t_dgl = DGLLike().run_gcn(g, cfg, V100_SCALED).time_ms
        t_ng = NeuGraphLike().run_gcn(g, cfg, V100_SCALED).time_ms
        assert t_ng > t_dgl

    def test_small_resident_footprint(self, g):
        """Chunking keeps the live footprint below full materialization."""
        cfg = GCNConfig()
        ng = NeuGraphLike().run_gcn(g, cfg, V100_SCALED)
        dgl = DGLLike().run_gcn(g, cfg, V100_SCALED)
        assert ng.report.peak_mem_bytes < dgl.report.peak_mem_bytes

    def test_unsupported_models(self, g):
        from repro.models import GATConfig, SageLSTMConfig

        with pytest.raises(NotSupported):
            NeuGraphLike().run_gat(g, GATConfig(), V100_SCALED)
        with pytest.raises(NotSupported):
            NeuGraphLike().run_sage_lstm(
                g, SageLSTMConfig(), V100_SCALED
            )

    def test_all_frameworks_registry(self):
        fw = all_frameworks()
        assert "neugraph" in fw
        assert list(fw)[:4] == ["dgl", "pyg", "roc", "ours"]


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["paper", "table3"])
        assert args.command == "paper"

    def test_paper_table3_command(self, capsys):
        assert main(["paper", "table3"]) == 0
        out = capsys.readouterr().out
        assert "ddi" in out and "dens" in out

    def test_paper_unknown_id_rejected(self):
        with pytest.raises(SystemExit):
            main(["paper", "fig99"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "--datasets", "cora"])

    def test_compare_command(self, capsys):
        assert main([
            "compare", "--model", "gcn", "--datasets", "ddi",
            "--frameworks", "dgl", "ours",
        ]) == 0
        out = capsys.readouterr().out
        assert "dgl" in out and "ours" in out

    def test_paper_fig3_command(self, capsys):
        assert main(["paper", "fig3"]) == 0
        assert "miss%" in capsys.readouterr().out

    def test_tune_command(self, capsys):
        assert main(["tune", "--dataset", "ddi", "--feat", "32"]) == 0
        assert "bound" in capsys.readouterr().out

    def test_schedule_command(self, capsys):
        assert main(["schedule", "--dataset", "ddi"]) == 0
        assert "clusters" in capsys.readouterr().out
