"""Command line behaviour: outputs, exit codes, reproducibility."""
import csv
import json
import sys
from dataclasses import replace

import pytest

from ntorrent_sim import cli
from ntorrent_sim.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from ntorrent_sim.scenario import MAX_PIECES, build_five_node, with_p_forward
from ntorrent_sim.trace import TraceWriter
from ntorrent_sim.world import World, run_scenario

TINY_SCENARIO = {
    "duration_us": 10_000_000,
    "torrents": [{"id": "movie1", "n_pieces": 4}],
    "nodes": [
        {"id": "s", "kind": "seeder", "torrent": "movie1", "position": [50, 50]},
        {"id": "l", "kind": "leecher", "torrent": "movie1", "position": [90, 50]},
    ],
}


# the oracle answers only for peers that keep beaconing after they complete
ORACLE_SCENARIO = dict(TINY_SCENARIO, app={"keep_seeding": True})


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_SCENARIO), encoding="utf-8")
    return str(path)


def test_run_writes_the_three_outputs(tiny_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", tiny_scenario, "--seed", "3",
                 "--out", str(out)])
    assert code == EXIT_OK
    for name in ("trace.csv", "metrics.csv", "positions.csv"):
        assert (out / name).is_file()
    stdout = capsys.readouterr().out
    assert "l [movie1] completed at" in stdout
    assert "transmissions=" in stdout


def test_five_node_runs_and_reports(tmp_path, capsys):
    out = tmp_path / "five"
    assert main(["five-node", "--p", "1.0", "--seed", "2",
                 "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "n1 [movie2] completed" in stdout
    assert "n2 [movie1] completed" in stdout


def test_same_seed_is_byte_identical(tiny_scenario, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--scenario", tiny_scenario, "--seed", "9", "--out", str(out_a)])
    main(["run", "--scenario", tiny_scenario, "--seed", "9", "--out", str(out_b)])
    for name in ("trace.csv", "metrics.csv", "positions.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_random_field_smoke(tmp_path):
    # 600 simulated seconds of a small mobile field
    out = tmp_path / "field"
    assert main(["random-field", "--nodes", "5", "--seed", "4",
                 "--out", str(out)]) == EXIT_OK
    assert (out / "positions.csv").stat().st_size > 0


def test_sweep_row_count_and_order(tiny_scenario, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--scenario", tiny_scenario, "--p", "0.0,1.0",
                 "--seeds", "1,2,3", "--out", str(out)])
    assert code == EXIT_OK
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "seed", "node", "torrent", "completed",
                       "completion_time_us"]
    body = rows[1:]
    # one leecher, two p values, three seeds
    assert len(body) == 6
    assert [(r[0], r[1]) for r in body] == [
        ("0.0", "1"), ("0.0", "2"), ("0.0", "3"),
        ("1.0", "1"), ("1.0", "2"), ("1.0", "3"),
    ]
    # the two-node layout needs no relay, so every run completes
    assert all(r[4] == "1" and r[5] != "" for r in body)


def test_a_run_in_a_sweep_depends_only_on_its_scenario_and_seed():
    # nothing outlives a run: each seed's rows are the same whichever seed runs
    # first, and the same as a lone run's
    line = build_five_node()
    cfg = replace(line, radio=replace(line.radio, loss_prob=0.1))
    forward = cli.sweep(cfg, [0.5], [1, 2])
    backward = cli.sweep(cfg, [0.5], [2, 1])
    for seed in (1, 2):
        rows = [row for row in forward if row[1] == seed]
        assert rows == [row for row in backward if row[1] == seed]
        _, metrics = run_scenario(with_p_forward(cfg, 0.5), seed)
        assert [row[2:] for row in rows] == [
            (node_id, lm.torrent, int(lm.completed),
             "" if lm.completion_time_us is None else lm.completion_time_us)
            for node_id, lm in metrics.per_leecher.items()]
    assert any(row[4] for row in forward)


def test_sweep_rows_are_those_of_each_runs_full_metrics():
    # each sweep run folds only its completions; the rows must be what the
    # whole-trace reduction of the same run reports
    line = build_five_node()
    cfg = replace(line, radio=replace(line.radio, loss_prob=0.1))
    p_values, seeds = [0.0, 0.5, 1.0], [1, 2, 3]
    expected = []
    for p_value in p_values:
        for seed in seeds:
            _, metrics = run_scenario(with_p_forward(cfg, p_value), seed)
            expected += [(p_value, seed, node_id, lm.torrent, int(lm.completed),
                          "" if lm.completion_time_us is None else lm.completion_time_us)
                         for node_id, lm in metrics.per_leecher.items()]
    rows = cli.sweep(cfg, p_values, seeds)
    assert rows == expected
    assert {row[4] for row in rows} == {0, 1}


@pytest.mark.parametrize("p_list, seed_list", [("", "1"), (",", "1"), ("1.0", ""), ("1.0", ",")])
def test_empty_sweep_list_exits_2(tiny_scenario, tmp_path, capsys, p_list, seed_list):
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenario", tiny_scenario, "--p", p_list,
              "--seeds", seed_list, "--out", str(out)])
    assert exc.value.code == 2
    assert "needs at least one value" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_refuses_a_bad_p_before_any_run(tiny_scenario, tmp_path, capsys, monkeypatch):
    runs = []
    real_run = World.run

    def counted_run(world):
        runs.append(world.master_seed)
        return real_run(world)

    monkeypatch.setattr(World, "run", counted_run)
    out = tmp_path / "sweep"
    code = main(["sweep", "--scenario", tiny_scenario, "--p", "0.5,1.5",
                 "--seeds", "1,2,3", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "p_forward" in capsys.readouterr().err
    assert runs == []
    assert not (out / "sweep.csv").exists()


def test_oracle_subcommand_prints_verdicts(tmp_path, capsys):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(ORACLE_SCENARIO), encoding="utf-8")
    assert main(["oracle", "--scenario", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "l,reachable\n"


def test_oracle_rejects_mobile_scenarios(tmp_path, capsys):
    mobile = dict(ORACLE_SCENARIO)
    mobile["nodes"] = [dict(n) for n in TINY_SCENARIO["nodes"]]
    mobile["nodes"][1]["mobility"] = "random_walk"
    path = tmp_path / "mobile.json"
    path.write_text(json.dumps(mobile), encoding="utf-8")
    assert main(["oracle", "--scenario", str(path)]) == EXIT_CONFIG
    assert "not statically placed" in capsys.readouterr().err


def test_oracle_refuses_peers_that_stop_seeding(tiny_scenario, capsys):
    # keep_seeding defaults to false: a finished peer falls silent
    assert main(["oracle", "--scenario", tiny_scenario]) == EXIT_CONFIG
    assert "keep_seeding" in capsys.readouterr().err


def test_config_errors_exit_2(tmp_path, capsys):
    bad = dict(TINY_SCENARIO, unknown_key=1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "unknown key" in capsys.readouterr().err
    assert main(["random-field", "--nodes", "3", "--seed", "1",
                 "--out", str(out)]) == EXIT_CONFIG


@pytest.mark.parametrize("overrides,message", [
    ({"app": {"keep_seeding": "false"}}, "app.keep_seeding must be true or false"),
    ({"collision_mode": 0}, "collision_mode must be true or false"),
    ({"forwarding": {"cache_overheard_data": "no"}},
     "forwarding.cache_overheard_data must be true or false"),
    ({"grid": 5}, "grid must be an object"),
    ({"radio": []}, "radio must be an object"),
])
def test_badly_typed_values_exit_2(tmp_path, capsys, overrides, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(TINY_SCENARIO, **overrides)), encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_lone_carriage_return_in_an_id_exits_2(tmp_path, capsys):
    bad = json.loads(json.dumps(TINY_SCENARIO))
    bad["nodes"][1]["id"] = "l\r1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "carriage return" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("text,message", [
    (json.dumps(TINY_SCENARIO).replace('"kind": "seeder"', '"kind": "leecher", "kind": "seeder"'),
     "repeated key 'kind'"),
    (json.dumps(TINY_SCENARIO).replace('"id": "s"', '"id": "s\\u0000"'), "bad node id"),
    (json.dumps(TINY_SCENARIO).replace('"id": "s"', '"id": "\\ud800"'), "bad node id"),
    (json.dumps(TINY_SCENARIO).replace('"movie1"', '"\\ud800"'), "bad torrent id"),
], ids=["repeated-key", "nul-id", "surrogate-node-id", "surrogate-torrent-id"])
def test_files_that_would_run_the_wrong_scenario_or_crash_exit_2(tmp_path, capsys, text,
                                                                  message):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="ascii")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_integer_too_large_for_a_float_exits_2(tmp_path, capsys):
    # json reads a 400-digit integer exactly; float() of it overflows
    huge = dict(ORACLE_SCENARIO, radio={"range_m": 10 ** 400})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(huge), encoding="utf-8")
    assert main(["oracle", "--scenario", str(path)]) == EXIT_CONFIG
    assert "radio.range_m" in capsys.readouterr().err


def test_piece_count_above_the_bound_exits_2(tmp_path, capsys):
    # a seeder's bitmap holds one bit per piece; an unbounded count ran out of memory
    big = dict(TINY_SCENARIO, torrents=[{"id": "movie1", "n_pieces": MAX_PIECES + 1}])
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big), encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "n_pieces must be within [1, 65536]" in capsys.readouterr().err


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    # json.loads recurses once per level and raised RecursionError here
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"grid": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error:" in err and "nesting too deep" in err


def test_undecodable_scenario_bytes_exit_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(json.dumps(TINY_SCENARIO).encode("utf-8").replace(b'"s"', b'"\xff"'))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


def test_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # CPython from 3.10.7 on refuses int() of over 4,300 digits, and json.loads
    # raised that ValueError; without the limit the float range check refuses it
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(TINY_SCENARIO)[:-1] + ', "radio": {"range_m": '
                    + "9" * 5_000 + "}}", encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if hasattr(sys, "set_int_max_str_digits"):  # the interpreter has the limit
        assert str(path) in err
    else:
        assert "radio.range_m" in err


def test_a_value_error_inside_a_run_is_no_configuration_error(tiny_scenario, tmp_path,
                                                               monkeypatch):
    def faulty_run(world):
        raise ValueError("fault inside the run")

    monkeypatch.setattr(World, "run", faulty_run)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="fault inside the run"):
        main(["run", "--scenario", tiny_scenario, "--out", str(out)])
    assert list(out.iterdir()) == []


def test_a_run_that_raises_after_writing_rows_leaves_no_output(tiny_scenario, tmp_path,
                                                               monkeypatch):
    # rows are handed to the writers after every delivery, so by the GC tick at
    # 2 s, where the fault strikes, the partial files have taken rows
    monkeypatch.setattr("ntorrent_sim.world.HAND_OFF_ROWS", 1)
    written = []

    class CountingWriter(TraceWriter):
        def add(self, rows):
            written.extend(rows)
            super().add(rows)

    monkeypatch.setattr(cli, "TraceWriter", CountingWriter)
    out = tmp_path / "out"
    real_on_gc = World._on_gc

    def faulty_on_gc(self):
        if self.loop.now_us >= 2_000_000:
            assert (out / "trace.csv.part").is_file()
            raise ValueError("fault inside the run")
        real_on_gc(self)

    monkeypatch.setattr(World, "_on_gc", faulty_on_gc)
    with pytest.raises(ValueError, match="fault inside the run"):
        main(["run", "--scenario", tiny_scenario, "--out", str(out)])
    assert any(row[2] == "DATA_RX" for row in written)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("taken", ["trace.csv", "positions.csv"])
def test_an_output_that_cannot_take_its_name_leaves_no_part_file(tiny_scenario, tmp_path,
                                                                 capsys, taken):
    # the rename after the run fails; for positions.csv, after trace.csv took its name
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    assert main(["run", "--scenario", tiny_scenario, "--out", str(out)]) == EXIT_IO
    assert "i/o error:" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == [taken]
    assert list((out / taken).iterdir()) == []


def test_a_metrics_csv_that_cannot_take_its_name_leaves_no_output(tmp_path, capsys):
    # metrics.csv is renamed last, after trace.csv and positions.csv took their names
    out = tmp_path / "out"
    (out / "metrics.csv").mkdir(parents=True)
    assert main(["five-node", "--out", str(out)]) == EXIT_IO
    assert "i/o error:" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["metrics.csv"]
    assert list((out / "metrics.csv").iterdir()) == []


def test_missing_scenario_file_exits_3(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "out")]) == EXIT_IO
    assert "i/o error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "SCENARIO"],
    ["five-node"],
    ["random-field", "--nodes", "5"],
    ["sweep", "--scenario", "SCENARIO", "--p", "1.0", "--seeds", "1"],
    # sweep.csv.part cannot be opened: a directory of that name stands in for an
    # unwritable directory, which root could write anyway
    pytest.param(["sweep", "--scenario", "SCENARIO", "--p", "1.0", "--seeds", "1",
                  "--out", "BLOCKED"], id="sweep-part"),
], ids=lambda argv: argv[0])
def test_an_output_path_that_is_a_file_exits_3_before_any_run(
        tiny_scenario, tmp_path, capsys, monkeypatch, argv):
    def no_run(world):
        raise AssertionError("the run started before its outputs were opened")

    monkeypatch.setattr(World, "run", no_run)
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    blocked = tmp_path / "blocked"
    (blocked / "sweep.csv.part").mkdir(parents=True)
    stand_ins = {"SCENARIO": tiny_scenario, "BLOCKED": str(blocked)}
    argv = [stand_ins.get(arg, arg) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(taken)]
    assert main(argv) == EXIT_IO
    assert "i/o error:" in capsys.readouterr().err
    assert taken.read_text(encoding="utf-8") == "not a directory"
    assert [path.name for path in blocked.iterdir()] == ["sweep.csv.part"]
    assert list((blocked / "sweep.csv.part").iterdir()) == []


def test_bad_seed_rejected_by_the_parser(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["five-node", "--seed", "-1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, bad", [
    (["five-node", "--seed", "abc"], "abc"),
    (["five-node", "--seed", "18446744073709551616"], "18446744073709551616"),
    (["sweep", "--scenario", "x.json", "--p", "x", "--seeds", "1"], "x"),
    (["sweep", "--scenario", "x.json", "--p", "0.5,y", "--seeds", "1"], "y"),
    (["sweep", "--scenario", "x.json", "--p", "1", "--seeds", "a"], "a"),
    (["sweep", "--scenario", "x.json", "--p", "1", "--seeds", "1,-2"], "-2"),
], ids=["seed", "seed-past-64-bits", "p", "p-in-list", "seeds", "seeds-negative"])
def test_a_bad_option_value_exits_2_naming_the_text(tmp_path, capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert repr(bad) in err
    # the parser's own helpers are no part of the message, and nothing crashed
    for private in ("_u64", "_float", "_seed_list", "Traceback"):
        assert private not in err
