"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_t2a_applet_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["t2a", "--applet", "A9"])


class TestCommands:
    def test_t2a_e3(self, capsys):
        assert main(["t2a", "--applet", "A2", "--scenario", "E3", "--runs", "3"]) == 0
        out = capsys.readouterr().out
        assert "A2 under E3" in out
        assert "p50=" in out

    def test_t2a_unknown_scenario(self, capsys):
        assert main(["t2a", "--scenario", "E9", "--runs", "1"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["E1", "E2", "E3"])
    def test_t2a_applet_without_the_scenarios_variant(self, capsys, monkeypatch, scenario):
        import repro.testbed.scenarios as scenarios

        def build_nothing(*args, **kwargs):
            raise AssertionError("the pair is rejected before a testbed is built")

        monkeypatch.setattr(scenarios, "build_scenario", build_nothing)
        assert main(["t2a", "--applet", "A5", "--scenario", scenario, "--runs", "1"]) == 2
        err = capsys.readouterr().err
        assert f"applet A5 does not run under scenario {scenario}" in err
        assert "its scenarios are ['official']" in err
        assert "e2" not in err

    def test_timeline(self, capsys):
        assert main(["timeline", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "polls trigger service" in out

    def test_loops_explicit(self, capsys):
        assert main(["loops", "--kind", "explicit", "--duration", "1800"]) == 0
        out = capsys.readouterr().out
        assert "self-sustained: True" in out
        assert "static analysis (blind): 1" in out

    def test_loops_runtime_detection(self, capsys):
        assert main(["loops", "--kind", "implicit", "--duration", "3600",
                     "--runtime-detection"]) == 0
        out = capsys.readouterr().out
        assert "flagged" in out

    def test_fleet(self, capsys):
        assert main(["fleet", "--applets", "10", "--publications", "1"]) == 0
        out = capsys.readouterr().out
        assert "actions executed: 10" in out

    def test_fleet_delivery_push_reports_and_runs_push(self, capsys, tmp_path):
        metrics = tmp_path / "fleet.jsonl"
        assert main(["fleet", "--applets", "10", "--publications", "1",
                     "--delivery", "push", "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "10-applet fleet under push:" in out
        assert "actions executed: 10" in out
        # The push contract really ran: notifications were ingested, which
        # neither poll nor hint mode ever records.
        assert "engine.push.events_ingested" in metrics.read_text()

    def test_fleet_legacy_push_flag_removed(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--push"])

    def test_ecosystem_with_save(self, capsys, tmp_path):
        path = tmp_path / "snapshots.json"
        assert main(["ecosystem", "--scale", "0.005", "--save", str(path)]) == 0
        out = capsys.readouterr().out
        assert "IoT:" in out
        assert path.exists()

    @pytest.mark.parametrize("argv", [
        ["ecosystem", "--scale", "0.005", "--save"],
        ["t2a", "--applet", "A2", "--runs", "1", "--metrics"],
        ["chaos", "--scenario", "outage", "--snapshot"],
    ])
    def test_unwritable_output_path_is_a_clean_error(self, argv, capsys, tmp_path):
        missing = tmp_path / "no-such-dir" / "out"
        assert main(argv + [str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no-such-dir" in err
        assert "Traceback" not in err


class TestChaosCommand:
    def test_chaos_sharded_run(self, capsys):
        assert main(["chaos", "--scenario", "outage", "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "sharded chaos scenario 'outage'" in out
        assert "shards=4" in out
        assert "(victim)" in out
        assert "silently-lost=0" in out

    def test_chaos_sharded_snapshot_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main(["chaos", "--scenario", "outage", "--seed", "7",
                         "--shards", "4", "--snapshot", str(path)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_chaos_shards_one_is_single_engine_world(self, capsys):
        assert main(["chaos", "--scenario", "outage", "--shards", "1"]) == 0
        out = capsys.readouterr().out
        assert "sharded" not in out
        assert "silently-lost=0" in out

    def test_chaos_invalid_shards_rejected(self, capsys):
        assert main(["chaos", "--scenario", "outage", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_chaos_parallel_flag_removed(self):
        # One sharded world: there is no second stepping mode to opt into.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--shards", "4", "--parallel"])

    def test_chaos_jobs_flag_removed(self, capsys):
        # A stale script fails loudly instead of running something else.
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--scenario", "outage", "--shards", "4", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_chaos_invalid_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--shard-strategy", "modulo"])

    def test_chaos_replay_reports_catchup_burst(self, capsys):
        assert main(["chaos", "--scenario", "outage", "--replay"]) == 0
        out = capsys.readouterr().out
        assert "replay [batched (limit=50)]" in out
        assert "catch-up burst" in out
        assert "unbatched" in out
        assert "silently-lost=0" in out

    def test_chaos_replay_snapshot_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main(["chaos", "--scenario", "outage", "--seed", "7",
                         "--replay", "--snapshot", str(path)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert b"engine.replay." in a.read_bytes()

    def test_chaos_replay_sharded(self, capsys):
        assert main(["chaos", "--scenario", "outage", "--shards", "4",
                     "--replay"]) == 0
        out = capsys.readouterr().out
        assert "sharded chaos scenario 'outage'" in out
        assert "replay [batched (limit=50)]" in out
        assert "silently-lost=0" in out

    def test_chaos_sharded_with_custom_plan(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            '{"faults": [{"kind": "service_outage", "service": "chaos_sink",'
            ' "at": 20.0, "duration": 10.0}]}'
        )
        assert main(["chaos", "--scenario", "outage", "--shards", "4",
                     "--faults", str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "activated=1" in out
        assert "silently-lost=0" in out


    @pytest.mark.parametrize("fault, field", [
        ('"at": NaN, "duration": 10.0', "'at'"),
        ('"at": "30", "duration": 10.0', "'at'"),
        ('"at": 20.0, "duration": true', "'duration'"),
        ('"at": 20.0, "duration": 10.0, "loss": 0.5', "'loss'"),
    ])
    def test_chaos_malformed_plan_exits_2_naming_the_field(self, capsys, tmp_path,
                                                           fault, field):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            '{"faults": [{"kind": "service_outage", "service": "chaos_sink", '
            + fault + "}]}"
        )
        assert main(["chaos", "--scenario", "outage", "--faults", str(plan_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot load fault plan" in err and field in err

    def test_chaos_plan_with_unknown_top_level_key_exits_2(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text('{"faults": [], "x": 1}')
        assert main(["chaos", "--scenario", "outage", "--faults", str(plan_path)]) == 2
        assert "'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("shards, known", [
        ("1", "['chaos_sensor', 'chaos_sink']"),
        ("4", "['chaos_sensor0', 'chaos_sensor1', 'chaos_sensor2', 'chaos_sensor3', "
              "'chaos_sensor4', 'chaos_sensor5', 'chaos_sink0', 'chaos_sink1', "
              "'chaos_sink2', 'chaos_sink3', 'chaos_sink4', 'chaos_sink5']"),
    ])
    def test_chaos_plan_naming_an_unknown_service_exits_2(self, capsys, tmp_path,
                                                          shards, known):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            '{"faults": [{"kind": "service_outage", "service": "nope",'
            ' "at": 20.0, "duration": 10.0}]}'
        )
        assert main(["chaos", "--scenario", "outage", "--shards", shards,
                     "--faults", str(plan_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"cannot apply fault plan {plan_path}: service_outage: "
                       f"unknown service 'nope'; known: {known}\n")

    @pytest.mark.parametrize("shards, hosts", [
        ("1", "['engine.ifttt.cloud', 'sensor.cloud', 'sink.cloud']"),
        ("2", "['engine0.ifttt.cloud', 'engine1.ifttt.cloud', 'sensor0.cloud', "
              "'sensor1.cloud', 'sensor2.cloud', 'sensor3.cloud', 'sensor4.cloud', "
              "'sensor5.cloud', 'sink0.cloud', 'sink1.cloud', 'sink2.cloud', "
              "'sink3.cloud', 'sink4.cloud', 'sink5.cloud']"),
    ])
    def test_chaos_plan_naming_an_unknown_link_exits_2(self, capsys, tmp_path,
                                                       shards, hosts):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            '{"faults": [{"kind": "link_down", "a": "sensor.cloud", "b": "sink.cloud",'
            ' "at": 20.0, "duration": 10.0}]}'
        )
        assert main(["chaos", "--scenario", "partition", "--shards", shards,
                     "--faults", str(plan_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"cannot apply fault plan {plan_path}: link_down: no link between "
                       f"sensor.cloud and sink.cloud; every link joins core.internet "
                       f"to one of {hosts}\n")


class TestNewCommands:
    def test_decompose(self, capsys):
        assert main(["decompose", "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "wait_for_poll" in out

    def test_export_figures(self, capsys, tmp_path):
        assert main(["export-figures", "--output", str(tmp_path),
                     "--scale", "0.005", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "fig4_a1_a4" in out
        assert (tmp_path / "fig2_heatmap.csv").exists()
