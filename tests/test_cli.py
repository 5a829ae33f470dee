"""Tests for the ``clip-sched`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_schedule_args(self):
        args = build_parser().parse_args(["schedule", "comd", "1400"])
        assert args.command == "schedule"
        assert args.app == "comd"
        assert args.budget == pytest.approx(1400.0)
        assert args.mode == "predictive"

    def test_mode_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "comd", "1400", "--mode", "magic"])

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "7", "apps"])
        assert args.seed == 7

    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.command == "faults"
        assert args.policy == "sequential"
        assert args.budget == pytest.approx(1600.0)
        assert not args.json

    def test_faults_policy_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--policy", "chaotic"])

    def test_faults_chaos_flag(self):
        args = build_parser().parse_args(["faults", "--chaos"])
        assert args.chaos

    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-pending", "-1"],
            ["--max-pending", "0"],
            ["--window-ms", "-5"],
            ["--window-ms", "nan"],
            ["--max-burst", "0"],
        ],
        ids=" ".join,
    )
    def test_serve_rejects_bad_limits(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", *flags])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, culprit",
        [
            (["schedule", "comd", "nan"], "budget"),
            (["run", "comd", "0"], "budget"),
            (["compare", "nan", "--apps", "comd"], "budget"),
            (["compare", "inf"], "budget"),
            (["faults", "--budget", "-1"], "--budget"),
            (["replay", "--demo", "--budget", "inf"], "--budget"),
            (["serve", "--budget", "nan"], "--budget"),
            (["learn", "--budget", "0"], "--budget"),
            (["schedule", "comd", "abc"], "budget"),
            (["schedule", "comd", "1400", "--racks", "0"], "--racks"),
            (["schedule", "comd", "1400", "--racks", "-2"], "--racks"),
            (["faults", "--racks", "0"], "--racks"),
            (["faults", "--iterations", "0"], "--iterations"),
            (["learn", "--jobs", "0"], "--jobs"),
            (["learn", "--jobs", "-3"], "--jobs"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_bad_values_exit_2_before_any_work(
        self, argv, culprit, capsys, monkeypatch
    ):
        import repro.cli as cli

        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the arguments were checked")

        monkeypatch.setattr(cli, "_engine", forbidden)
        monkeypatch.setattr(cli, "build_trained_inflection", forbidden)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {culprit}:" in capsys.readouterr().err

    def test_replay_defaults(self):
        args = build_parser().parse_args(["replay", "--demo"])
        assert args.command == "replay"
        assert args.journal is None
        assert args.demo
        args = build_parser().parse_args(["replay", "some.journal"])
        assert args.journal == "some.journal"
        assert not args.demo


class TestCommands:
    def test_apps_lists_table2(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in ("bt-mz.C", "comd", "tealeaf", "stream"):
            assert name in out

    def test_classify(self, capsys):
        assert main(["classify", "tealeaf"]) == 0
        out = capsys.readouterr().out
        assert "parabolic" in out

    def test_profile(self, capsys):
        assert main(["profile", "stream"]) == 0
        out = capsys.readouterr().out
        assert "logarithmic" in out
        assert "memory intensive" in out

    def test_unknown_app_exits_nonzero(self, capsys):
        assert main(["classify", "nope"]) == 1
        err = capsys.readouterr().err
        assert "unknown app" in err

    def test_schedule_emits_script(self, capsys):
        assert main(["schedule", "comd", "1400"]) == 0
        out = capsys.readouterr().out
        assert "mpirun" in out
        assert "predicted performance" in out

    def test_schedule_json_mode(self, capsys):
        import json

        from repro.core.pipeline import SchedulingDecision

        assert main(["schedule", "comd", "1400", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        decision = SchedulingDecision.from_dict(payload["decision"])
        assert decision.app_name == "comd"
        assert decision.cluster_budget_w == pytest.approx(1400.0)
        assert decision.total_capped_w <= 1400.0 * (1 + 1e-9)
        stages = [s["stage"] for s in payload["trace"]["stages"]]
        assert stages == [
            "profile",
            "classify",
            "inflection",
            "fit_models",
            "allocate",
            "recommend",
            "audit",
        ]
        assert all(s["wall_time_s"] >= 0 for s in payload["trace"]["stages"])

    def test_run_executes(self, capsys):
        assert main(["run", "comd", "1400"]) == 0
        out = capsys.readouterr().out
        assert "nodes x" in out

    def test_faults_scenario_reports_clean_audit(self, capsys):
        import json

        assert main(["faults", "--iterations", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "sequential"
        assert len(payload["jobs"]) == 6
        assert payload["monitor"]["n_violations"] == 0
        assert payload["monitor"]["n_audits"] > 0
        assert len(payload["events"]) >= 2  # the script actually fired

    @pytest.mark.parametrize("policy", ["sequential", "coscheduled"])
    def test_faults_chaos_reports_watchdog_and_actuation(self, capsys, policy):
        import json

        assert main([
            "faults", "--chaos", "--policy", policy, "--iterations", "2",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["monitor"]["n_violations"] == 0
        # every job ran in at least two watched segments
        assert payload["watchdog"]["observations"] >= 2 * len(payload["jobs"])
        assert payload["actuation"]["writes"] > 0
        # queued caps go through the verified write path
        assert payload["actuation"]["verified"] > 0
        if policy == "sequential":
            actions = payload["watchdog"]["actions"]
            assert set(actions) - {"none", "blind"}, actions

    def test_faults_chaos_text_reports_watchdog(self, capsys):
        assert main(["faults", "--chaos", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "enforcement watchdog:" in out
        assert "verified" in out

    def test_replay_without_journal_or_demo_fails(self, capsys):
        assert main(["replay"]) == 2

    def test_replay_demo_round_trips(self, capsys):
        import json

        assert main(["replay", "--demo", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["crashed"]
        assert payload["bit_identical"]
        assert payload["job"]["done"]
        assert payload["monitor"]["n_violations"] == 0

    def test_replay_demo_non_finite_budget_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--demo", "--budget", "nan"])
        assert exc.value.code == 2
        assert "budget must be finite" in capsys.readouterr().err

    def test_compare_subset(self, capsys):
        assert main(["compare", "1400", "--apps", "comd", "sp-mz.C"]) == 0
        out = capsys.readouterr().out
        assert "CLIP" in out and "All-In" in out
        assert "sp-mz.C" in out


class TestLearnCommand:
    def test_learn_demo_campaign_reports_quality(self, capsys):
        assert main(["learn", "--jobs", "8"]) == 0
        out = capsys.readouterr().out
        assert "Decision quality" in out
        assert "outcomes=8" in out

    def test_learn_json_payload(self, capsys):
        import json

        assert main(["learn", "--jobs", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "demo campaign"
        assert payload["learning"]["enabled"] is True
        assert payload["learning"]["outcomes"] == 8
        assert set(payload["learning"]) == {
            "enabled",
            "outcomes",
            "refits",
            "observed_entries",
            "observations_held",
            "refitted_entries",
        }
        assert payload["cells"], payload
        for cell in payload["cells"]:
            assert cell["n"] >= 1
            assert 0.0 < cell["score"] <= 1.0

    def test_learn_from_saved_knowledge(self, tmp_path, capsys):
        from repro.core.knowledge import KnowledgeDB

        path = tmp_path / "kb.json"
        KnowledgeDB().save(path)
        assert main(["learn", "--knowledge", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no observations recorded" in out

    def test_learn_reports_legacy_explored_observations(
        self, engine, trained_inflection, tmp_path, capsys
    ):
        """A database saved while the scheduler still stamped
        ``"explored"`` observation flags loads and reports."""
        from dataclasses import replace

        from repro.core.knowledge import KnowledgeDB
        from repro.core.scheduler import ClipScheduler
        from repro.workloads.apps import get_app

        clip = ClipScheduler(engine, inflection=trained_inflection)
        app = get_app("comd")
        clip.run(app, 1400.0, iterations=2)
        entry = clip.knowledge.get(app.name, app.problem_size)
        flagged = replace(entry.observations[-1], flags=("explored",))
        kb = KnowledgeDB()
        kb.put(replace(entry, observations=(flagged,)))
        path = tmp_path / "kb.json"
        kb.save(path)
        assert main(["learn", "--knowledge", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Decision quality" in out
        assert "comd" in out


class TestReportCommand:
    def test_report_from_empty_dir(self, tmp_path, capsys):
        assert main(["report", "--results", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Reproduction report" in out
        assert "not yet regenerated" in out
