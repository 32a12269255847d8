"""Tests for the command-line interface."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.sim.session import SessionStats


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--workload", "not-a-workload"]
            )

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_accepts_mix_spec_and_preset(self):
        args = build_parser().parse_args(
            ["run", "--workload", "mix:2xoltp-db2+2xdss-db2"]
        )
        assert args.workload == "mix:2xoltp-db2+2xdss-db2"
        args = build_parser().parse_args(
            ["compare", "--workload", "mix-web-sci"]
        )
        assert args.workload == "mix-web-sci"

    def test_rejects_bad_mix_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--workload", "mix:oltp-db2+no-such-workload"]
            )

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--workload", "web-apache", "--cores", "0"], "--cores"),
            (["compare", "--workload", "web-apache", "--cores", "-2"],
             "--cores"),
            (["cache", "warm", "fig7", "--cores", "0"], "--cores"),
            (["sweep-sampling", "--workload", "web-apache", "--cores", "x"],
             "--cores"),
            (["run", "--workload", "web-apache", "--seed", "-1"], "--seed"),
            (["run", "--workload", "web-apache", "--sampling", "2.0"],
             "--sampling"),
            (["run", "--workload", "web-apache", "--sampling", "nan"],
             "--sampling"),
            (["cache", "gc", "--max-mb", "-5"], "--max-mb"),
            (["cache", "gc", "--max-mb", "0"], "--max-mb"),
            (["cache", "gc", "--max-mb", "nan"], "--max-mb"),
            (["cache", "gc", "--max-mb", "inf"], "--max-mb"),
            (["experiment", "fig8", "--budget", "0"], "--budget"),
            (["experiment", "fig8", "--budget", "-1"], "--budget"),
            (["experiment", "fig8", "--confidence", "2"], "--confidence"),
            (["experiment", "fig8", "--confidence", "0"], "--confidence"),
            (["experiment", "fig8", "--confidence", "1"], "--confidence"),
            (["experiment", "fig8", "--confidence", "nan"], "--confidence"),
            (["experiment", "fig8", "--ci-width", "-1"], "--ci-width"),
            (["experiment", "fig8", "--ci-width", "0"], "--ci-width"),
            (["experiment", "fig8", "--ci-width", "inf"], "--ci-width"),
            (["experiment", "fig8", "--ci-width", "nan"], "--ci-width"),
            (["experiment", "fig7", "--jobs", "0"], "--jobs"),
            (["cache", "warm", "fig7", "--jobs", "-5"], "--jobs"),
        ],
    )
    def test_rejects_bad_numeric_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert f"error: argument {flag}: expected " in error

    def test_accepts_numeric_flags_at_their_bounds(self):
        args = build_parser().parse_args(
            ["run", "--workload", "web-apache", "--cores", "1",
             "--seed", "0", "--sampling", "0"]
        )
        assert (args.cores, args.seed, args.sampling) == (1, 0, 0.0)
        args = build_parser().parse_args(["cache", "gc", "--max-mb", "0.5"])
        assert args.max_mb == 0.5
        args = build_parser().parse_args(
            ["experiment", "fig8", "--budget", "1", "--confidence", "0.5",
             "--ci-width", "1e-9", "--jobs", "1"]
        )
        assert (args.budget, args.confidence, args.ci_width, args.jobs) == (
            1, 0.5, 1e-9, 1
        )
        args = build_parser().parse_args(["cache", "warm", "fig7", "--jobs", "1"])
        assert args.jobs == 1


def _subcommands(
    parser: argparse.ArgumentParser,
) -> "dict[str, argparse.ArgumentParser]":
    [action] = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return dict(action.choices)


class TestCommandSurface:
    """Every command works on local traces and the local artifact
    store; there is no server, client or remote-store command."""

    def test_top_level_commands(self):
        assert set(_subcommands(build_parser())) == {
            "list-workloads", "list-experiments", "list-mixes", "run",
            "compare", "experiment", "sweep-sampling", "cache",
        }

    def test_cache_commands(self):
        cache = _subcommands(build_parser())["cache"]
        assert set(_subcommands(cache)) == {"ls", "stats", "gc", "warm"}

    @pytest.mark.parametrize("command", ["serve", "store", "client"])
    def test_retired_command_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_importing_cli_loads_no_http_stack(self):
        code = (
            "import sys, repro.cli; "
            "print(sorted(m for m in ('http.client', 'email') "
            "if m in sys.modules))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert done.stdout.strip() == "[]"


class TestCommands:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "oltp-db2" in out
        assert "sci-em3d" in out

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table2" in out

    def test_run_baseline(self, capsys):
        code = main(
            [
                "run", "--workload", "oltp-db2", "--prefetcher",
                "baseline", "--scale", "test", "--cores", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "coverage" in out

    def test_run_stms_with_sampling(self, capsys):
        code = main(
            [
                "run", "--workload", "web-apache", "--prefetcher", "stms",
                "--sampling", "0.5", "--scale", "test", "--cores", "2",
            ]
        )
        assert code == 0
        assert "stms" in capsys.readouterr().out

    def test_compare(self, capsys):
        code = main(
            ["compare", "--workload", "sci-ocean", "--scale", "test",
             "--cores", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ideal-tms" in out and "stms" in out

    def test_list_mixes(self, capsys):
        assert main(["list-mixes"]) == 0
        out = capsys.readouterr().out
        assert "mix-oltp-dss" in out
        assert "mix:oltp-db2+dss-db2" in out

    def test_closed_stdout_exits_quietly(self):
        """A reader that closes the pipe early (``| head -1``) ends the
        command with status 1 and no traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"
        )
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "list-experiments"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")

    def test_run_mix_prints_per_workload_split(self, capsys):
        code = main(
            ["run", "--workload", "mix:oltp-db2+dss-db2",
             "--prefetcher", "stms", "--scale", "test", "--cores", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-workload split" in out
        assert "oltp-db2" in out and "dss-db2" in out

class TestCacheCli:
    def test_stats_on_empty_store(self, tmp_path, capsys):
        code = main(["cache", "stats", "--store-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Artifact store" in out
        assert str(tmp_path) in out

    def test_warm_ls_rewarm_gc_cycle(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        base = ["--scale", "test", "--cores", "2", "--store-dir", store]

        assert main(["cache", "warm", "web-apache"] + base) == 0
        out = capsys.readouterr().out
        assert "3 simulated" in out  # baseline / ideal / STMS

        assert main(["cache", "ls", "--store-dir", store]) == 0
        out = capsys.readouterr().out
        assert "result" in out and "trace" in out
        assert "web-apache" in out

        # A second warm builds a fresh session (same as a new process):
        # everything must come from the disk store.
        assert main(["cache", "warm", "web-apache"] + base) == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out
        assert "3 store hits" in out

        assert main(["cache", "gc", "--clear", "--store-dir", store]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "ls", "--store-dir", store]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_gc_negative_cap_is_rejected_before_touching_the_store(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        assert main(["cache", "warm", "web-apache", "--scale", "test",
                     "--cores", "2", "--store-dir", store]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["cache", "gc", "--max-mb", "-5", "--store-dir", store])
        assert exit_info.value.code == 2
        assert main(["cache", "ls", "--store-dir", store]) == 0
        assert "(4 entries" in capsys.readouterr().out

    def test_gc_without_cap_fails(self, tmp_path, capsys):
        code = main(["cache", "gc", "--store-dir", str(tmp_path)])
        assert code == 1
        assert "--max-mb" in capsys.readouterr().out

    def test_run_populates_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(
            ["run", "--workload", "oltp-db2", "--prefetcher", "baseline",
             "--scale", "test", "--cores", "2", "--store-dir", store]
        )
        assert code == 0
        assert os.listdir(os.path.join(store, "results"))
        assert os.listdir(os.path.join(store, "traces"))

    def test_run_no_cache_skips_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(
            ["run", "--workload", "oltp-db2", "--prefetcher", "baseline",
             "--scale", "test", "--cores", "2", "--no-cache",
             "--store-dir", store]
        )
        assert code == 0
        assert "baseline" in capsys.readouterr().out
        assert not os.path.exists(store)


class TestCountersCli:
    """A run's counters reach the console, ``counters.json`` and
    ``cache stats`` under the declared ``SessionStats`` names."""

    def _warm_fig7(self, store, capsys):
        assert main(
            ["cache", "warm", "fig7", "--scale", "test", "--cores", "2",
             "--jobs", "2", "--store-dir", store]
        ) == 0
        return capsys.readouterr().out

    def _persisted(self, store):
        with open(os.path.join(store, "counters.json")) as handle:
            return json.load(handle)

    def test_cold_parallel_warm_counts_every_store_write(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        out = self._warm_fig7(store, capsys)
        written = sum(
            len(os.listdir(os.path.join(store, kind)))
            for kind in ("traces", "results")
        )
        assert written == 24  # 8 traces, 16 results
        assert f": {written} writes," in out
        assert self._persisted(store)["store_writes"] == written

    def test_persisted_counter_keys_are_declared(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self._warm_fig7(store, capsys)
        assert main(
            ["experiment", "mix-contention", "--scale", "test",
             "--budget", "4", "--jobs", "2", "--store-dir", store]
        ) == 0
        orphan = os.path.join(store, "traces", ".tmp-orphan")
        open(orphan, "wb").close()
        os.utime(orphan, (0, 0))
        assert main(
            ["cache", "gc", "--max-mb", "4096", "--store-dir", store]
        ) == 0
        persisted = self._persisted(store)
        declared = {field.name for field in dataclasses.fields(SessionStats)}
        assert set(persisted) <= declared
        for name in ("store_writes", "sim_records", "sweep_cells",
                     "sampling_sampled_cells", "stale_temps_swept"):
            assert persisted[name] > 0, name
        capsys.readouterr()
        assert main(["cache", "stats", "--store-dir", store]) == 0
        out = capsys.readouterr().out
        for name, value in persisted.items():
            assert re.search(
                rf"\n{name.replace('_', ' ')} +{value}\s", out
            ), name

    def test_gc_persists_the_schema_invalidation_of_its_opening(
        self, tmp_path, capsys
    ):
        store = tmp_path / "store"
        (store / "results").mkdir(parents=True)
        (store / "results" / "stale.json").write_text("{}")
        (store / "schema.json").write_text('{"schema": -1}')
        assert main(
            ["cache", "gc", "--max-mb", "4096", "--store-dir", str(store)]
        ) == 0
        assert not (store / "results" / "stale.json").exists()
        assert self._persisted(str(store)) == {
            "store_schema_invalidations": 1
        }


class TestSampledExperimentCli:
    def test_budget_rejected_for_exact_only_experiment(self, capsys):
        code = main(
            ["experiment", "fig4", "--scale", "test", "--budget", "4"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "sampled-capable" in err
        assert "mix-contention" in err

    @pytest.mark.parametrize("name", ["fig8", "fig4"])
    def test_confidence_without_sampling_is_rejected(
        self, name, tmp_path, capsys
    ):
        """A level with no sampled sweep to apply it to is an error
        (exit 2) that names the missing flags, before any cell runs."""
        store = tmp_path / "store"
        code = main(
            ["experiment", name, "--scale", "test", "--confidence", "0.5",
             "--store-dir", str(store)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--confidence" in err
        assert "--budget or --ci-width" in err
        assert not store.exists()

    def test_budgeted_experiment_reports_cis_and_counters(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        code = main(
            ["experiment", "mix-contention", "--scale", "test",
             "--budget", "4", "--store-dir", store]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ci95" in out
        assert "sampling: sampled 4/" in out

        assert main(["cache", "stats", "--store-dir", store]) == 0
        out = capsys.readouterr().out
        assert re.search(r"sampling sampled cells +4\s", out)
        assert "sampled cell share" in out
        assert "estimates" in out

        assert main(["cache", "ls", "--store-dir", store]) == 0
        out = capsys.readouterr().out
        assert "estimate" in out
        assert "mix-contention sampled 4/" in out


class TestCommandsSlow:
    @pytest.mark.slow
    def test_experiment_to_file(self, tmp_path, capsys):
        target = str(tmp_path / "table2.txt")
        code = main(
            ["experiment", "table2", "--scale", "test", "--output", target]
        )
        assert code == 0
        content = open(target).read()
        assert "Table 2" in content
        assert "PASS" in content
