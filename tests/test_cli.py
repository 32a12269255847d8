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
from repro.sim.store import ArtifactStore, estimate_digest


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
            (["experiment", "fig7", "--jobs", "0"], "--jobs"),
            (["cache", "warm", "fig7", "--jobs", "-5"], "--jobs"),
            (["compare", "--workload", "web-apache", "--seed", "x"],
             "--seed"),
            (["sweep-sampling", "--workload", "web-apache", "--seed", "-3"],
             "--seed"),
            (["cache", "warm", "fig7", "--seed", "-1"], "--seed"),
            (["run", "--workload", "web-apache", "--sampling", "-0.1"],
             "--sampling"),
            (["run", "--workload", "web-apache", "--sampling", "inf"],
             "--sampling"),
            (["run", "--workload", "web-apache", "--cores", "1.5"],
             "--cores"),
            (["experiment", "fig7", "--jobs", "x"], "--jobs"),
            (["cache", "gc", "--max-mb", "x"], "--max-mb"),
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
        args = build_parser().parse_args(["experiment", "fig8", "--jobs", "1"])
        assert args.jobs == 1
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

    @pytest.mark.parametrize("name", ["fig8", "mix-contention"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--budget", "16"), ("--confidence", "0.9")],
    )
    def test_retired_sampled_sweep_flag_rejected(
        self, name, flag, value, capsys
    ):
        """Experiments run their exact grids only; a budget or
        confidence flag is an error, not silently ignored."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["experiment", name, flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in (
            capsys.readouterr().err
        )

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

    @pytest.mark.parametrize(
        "engine", ["batc", "scalar", "batch", "auto", "", None]
    )
    def test_engine_knob_is_checked_before_any_work(
        self, engine, monkeypatch, capsys
    ):
        """A misspelt ``REPRO_SIM_ENGINE`` ends a simulating command in
        one ``repro: error:`` line with status 2 and no output; a valid
        value, an empty one and an unset variable run it."""
        if engine is None:
            monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        else:
            monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
        argv = ["run", "--workload", "web-apache", "--prefetcher",
                "baseline", "--scale", "test", "--cores", "1",
                "--no-cache"]
        if engine == "batc":
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "repro: error: unknown engine 'batc' from "
                "REPRO_SIM_ENGINE (batch/scalar/auto)"
            ]
        else:
            assert main(argv) == 0
            assert "baseline" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--workload", "web-apache", "--scale", "test"],
            ["compare", "--workload", "web-apache", "--scale", "test"],
            ["experiment", "fig7", "--scale", "test", "--jobs", "1"],
            ["sweep-sampling", "--workload", "web-apache",
             "--scale", "test"],
            ["cache", "warm", "web-apache", "--scale", "test"],
        ],
        ids=["run", "compare", "experiment", "sweep-sampling",
             "cache-warm"],
    )
    def test_bad_engine_stops_every_simulating_command(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        """Every command that simulates checks the engine before it
        opens the store: the bad value leaves no store behind."""
        monkeypatch.setenv("REPRO_SIM_ENGINE", "vector")
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--store-dir", str(store)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "repro: error: unknown engine 'vector' from "
            "REPRO_SIM_ENGINE (batch/scalar/auto)"
        ]
        assert not store.exists()

    @pytest.mark.parametrize(
        "argv",
        [["list-workloads"], ["cache", "ls"], ["cache", "stats"]],
        ids=["list-workloads", "cache-ls", "cache-stats"],
    )
    def test_commands_that_never_simulate_ignore_the_engine(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "vector")
        if argv[0] == "cache":
            argv = [*argv, "--store-dir", str(tmp_path)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out
        assert "REPRO_SIM_ENGINE" not in captured.err

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

    def test_ls_labels_an_estimate_record(self, tmp_path, capsys):
        """Stores written by earlier versions hold sampled-estimate
        records; ``cache ls`` still lists and labels them."""
        store = ArtifactStore(str(tmp_path / "store"))
        assert store.save_estimate(
            estimate_digest(("mix-contention", 4)),
            {"experiment": "mix-contention", "budget": 4, "total": 64},
        )
        assert main(["cache", "ls", "--store-dir", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"\nestimate .* mix-contention sampled 4/64\s", out)

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


    @pytest.mark.parametrize("name", ["fig8", "mix-contention"])
    def test_exact_experiment_simulates_every_cell_and_writes_no_estimate(
        self, name, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        assert main(["experiment", name, "--scale", "test", "--jobs", "1",
                     "--store-dir", store]) == 0
        with open(os.path.join(store, "counters.json")) as handle:
            counters = json.load(handle)
        assert counters["sim_misses"] > 0
        assert counters["sweep_cells"] == counters["sim_misses"]
        assert len(os.listdir(os.path.join(store, "results"))) == (
            counters["sim_misses"]
        )
        assert ArtifactStore(store).describe()["estimates"] == 0


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
        assert main(
            ["experiment", "mix-contention", "--scale", "test",
             "--jobs", "2", "--store-dir", store]
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
                     "stale_temps_swept"):
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


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_knob_table_matches_code():
    """Every ``REPRO_*`` knob the code reads has exactly one README row.

    A knob added without a row, or a row left behind after its knob is
    deleted, fails here instead of drifting silently.
    """
    in_code = set()
    for directory, _, names in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(directory, name)) as handle:
                    in_code.update(
                        re.findall(
                            r"""["'](REPRO_[A-Z0-9_]+)["']""", handle.read()
                        )
                    )
    with open(os.path.join(REPO_ROOT, "README.md")) as handle:
        in_readme = set(
            re.findall(r"^\| `(REPRO_[A-Z0-9_]+)", handle.read(), re.MULTILINE)
        )
    assert in_code == in_readme
