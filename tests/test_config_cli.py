import csv
import filecmp
import inspect
import itertools
import math
import os
import re
import runpy
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings

import rarenet
from rarenet.archlib import build_architecture
from rarenet import cli
from rarenet.cli import main
from rarenet.config import (
    emit,
    ConfigError,
    ExperimentConfig,
    default_bp1_targets,
    load_config,
    parse,
    save_config,
)
from rarenet.estimate import (compare, estimate_rare_nets, operand_stats,
                              sweep_bp1, write_report_csv)
from rarenet.netlist import load_netlist
from rarenet.simulate import RARE_THRESHOLD
from rarenet.stimulus import (DEFAULT_SEED, DEFAULT_VECTORS, dump_stream,
                              generate, load_stream, unit_chain)

from conftest import ADDERS, MULTS, mutations


def small_config(**overrides):
    base = dict(
        architectures=(("RCA", 8), ("CKA", 8)),
        vectors=400,
        thresholds=(1e-3,),
        bp1_targets=(3, 4),
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_emit_parse_round_trip():
    cfg = small_config()
    assert parse(emit(cfg)) == cfg


def test_config_file_round_trip(tmp_path):
    cfg = small_config()
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


# " out" would read back as "out", and a line break as a second key
@pytest.mark.parametrize("output_dir", [" out", "out\nseed=5"])
def test_config_that_cannot_be_read_back_is_not_written(output_dir, tmp_path):
    cfg = small_config(output_dir=output_dir)
    with pytest.raises(ConfigError, match="^output_dir "):
        emit(cfg)
    with pytest.raises(ConfigError, match="^output_dir "):
        save_config(cfg, tmp_path / "run.cfg")
    assert not (tmp_path / "run.cfg").exists()


# architectures as given -> as the config holds them, or the error that
# keeps them from a config file
ARCH_ROUND_TRIPS = [
    ((("rca", 8),), (("RCA", 8),)),
    (((" RCA", 8),), (("RCA", 8),)),
    ((("R,CA", 8),), "cannot be read back"),
    ((("RCA:4", 8),), "cannot be read back"),
    ((("rca", 8), ("RCA", 8)), "lists an item twice"),
]


@pytest.mark.parametrize("given,held", ARCH_ROUND_TRIPS)
def test_config_architectures_read_back_as_held(given, held, tmp_path):
    path = tmp_path / "run.cfg"
    if isinstance(held, str):
        with pytest.raises(ConfigError, match=held):
            save_config(small_config(architectures=given), path)
        assert not path.exists()
        return
    cfg = small_config(architectures=given)
    assert cfg.architectures == held
    assert parse(emit(cfg)) == cfg == small_config(architectures=held)
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_parse_accepts_comments_and_blanks():
    cfg = parse("# experiment\n\narchitectures = RCA:16\nvectors = 50\n")
    assert cfg.architectures == (("RCA", 16),)
    assert cfg.vectors == 50
    assert cfg.thresholds == (RARE_THRESHOLD,)


def test_typed_values_keep_their_float_forms(capsys):
    cfg = parse("architectures = RCA:8\nrho_a = .5\nrho_b = -2.5e-1\n"
                "thresholds = 1e-4\nvectors = 0100\nbp1_targets = 3, 4\n")
    assert (cfg.rho_a, cfg.rho_b, cfg.thresholds, cfg.vectors,
            cfg.bp1_targets) == (0.5, -0.25, (1e-4,), 100, (3, 4))
    assert main(["estimate", "--arch", "RCA:16", "--std", "1.024e3",
                 "--rho", ".99"]) == 0
    assert "bp1=11" in capsys.readouterr().out


def test_config_parse_rejects_bad_input():
    with pytest.raises(ConfigError):
        parse("vectors = 100\n")  # architectures missing
    with pytest.raises(ConfigError):
        parse("architectures = RCA:16\nwombat = 3\n")
    with pytest.raises(ConfigError):
        parse("architectures = RCA:16\nvectors = soon\n")
    with pytest.raises(ConfigError):
        parse("architectures = RCA:sixteen\n")


@pytest.mark.parametrize("text, message", [
    ("architectures = RCA:8\nbp1_targets = ,\n",
     "line 2: bp1_targets: ',' has an empty item$"),
    ("architectures = RCA:8,,CKA:8\n",
     "line 1: architectures: 'RCA:8,,CKA:8' has an empty item$"),
    ("architectures = RCA:8\nbp1_targets = 3,,4\n",
     "line 2: bp1_targets: '3,,4' has an empty item$"),
    ("architectures = RCA:8\nthresholds = 1e-4,\n",
     "line 2: thresholds: '1e-4,' has an empty item$"),
    ("architectures = RCA:8\nbp1_targets = 3, ,4\n",
     "line 2: bp1_targets: '3, ,4' has an empty item$"),
])
def test_config_empty_list_item_names_key_and_line(text, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        parse(text)


def test_config_empty_list_value_is_the_default():
    """`emit` writes `bp1_targets=` for the default sweep."""
    cfg = small_config(bp1_targets=())
    assert "\nbp1_targets=\n" in emit(cfg)
    assert parse(emit(cfg)) == cfg
    assert parse("architectures = RCA:8\nbp1_targets =\n").bp1_targets == ()


def test_config_parse_rejects_repeated_key():
    with pytest.raises(ConfigError, match="line 3"):
        parse("architectures = RCA:8\nvectors = 50\narchitectures = CKA:8\n")


@settings(max_examples=300, deadline=None)
@given(mutations(emit(small_config())))
def test_mutated_config_parses_or_raises_config_error(text):
    try:
        parse(text)
    except ConfigError:
        pass


@pytest.mark.parametrize("threshold", [-0.1, 2.0, math.nan])
def test_config_threshold_outside_unit_interval_names_it(threshold):
    with pytest.raises(ConfigError,
                       match=rf"^threshold {threshold} outside \[0, 1\]$"):
        small_config(thresholds=(threshold,))


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(architectures=())
    with pytest.raises(ConfigError):
        small_config(vectors=1)
    with pytest.raises(ConfigError):
        small_config(thresholds=(2.0,))
    with pytest.raises(ConfigError):
        small_config(thresholds=(1e-3, 1e-4))
    with pytest.raises(ConfigError):
        small_config(thresholds=())
    for bad in (dict(rho_a=1.0), dict(rho_b=1.5), dict(seed=-1),
                dict(bp1_targets=(3, -3)), dict(bp1_targets=(2000,)),
                dict(bp1_targets=(3, 3)),
                dict(architectures=(("RCA", 8), ("CKA", 8), ("RCA", 8)))):
        with pytest.raises(ConfigError):
            small_config(**bad)


def test_default_boundary_targets_by_width():
    assert default_bp1_targets(16) == (6, 7, 8, 9, 10, 11, 12, 13)
    assert default_bp1_targets(8) == (2, 3, 4, 5)


def test_cli_gen_vectors_and_round_trip(tmp_path):
    out = tmp_path / "s.txt"
    rc = main(["gen-vectors", "--width", "8", "--std", "16", "--rho", "0.9",
               "--vectors", "100", "--seed", "2", "--out", str(out)])
    assert rc == 0
    stream = load_stream(out)
    assert len(stream) == 100
    assert stream.bit_width == 8


def test_cli_build_netlist(tmp_path):
    out = tmp_path / "n.net"
    rc = main(["build-netlist", "--arch", "rca:8", "--out", str(out)])
    assert rc == 0
    nl = load_netlist(out)
    assert nl.width == 8 and not nl.is_multiplier


def test_cli_simulate_pipeline(tmp_path):
    net = tmp_path / "n.net"
    sa = tmp_path / "a.txt"
    sb = tmp_path / "b.txt"
    act = tmp_path / "act.csv"
    assert main(["build-netlist", "--arch", "RCA:8", "--out", str(net)]) == 0
    for seed, path in ((1, sa), (2, sb)):
        assert main(["gen-vectors", "--width", "8", "--std", "16",
                     "--rho", "0.9", "--vectors", "200", "--seed", str(seed),
                     "--out", str(path)]) == 0
    rc = main(["simulate", "--netlist", str(net), "--stream-a", str(sa),
               "--stream-b", str(sb), "--out", str(act)])
    assert rc == 0
    lines = act.read_text().splitlines()
    assert lines[0].startswith("net_id,")
    assert len(lines) > 40


def _simulate_inputs(tmp_path):
    """RCA:4 netlist and two 20-vector streams written through the CLI."""
    net = tmp_path / "n.net"
    streams = []
    assert main(["build-netlist", "--arch", "RCA:4", "--out", str(net)]) == 0
    for seed in (1, 2):
        path = tmp_path / f"s{seed}.txt"
        assert main(["gen-vectors", "--width", "4", "--std", "1",
                     "--rho", "0.5", "--vectors", "20", "--seed", str(seed),
                     "--out", str(path)]) == 0
        streams.append(path)
    return net, streams


def test_cli_simulate_stream_header_missing_key_exits_2(tmp_path, capsys):
    net, (sa, sb) = _simulate_inputs(tmp_path)
    header, body = sa.read_text().split("\n", 1)
    sa.write_text(" ".join(f for f in header.split()
                           if not f.startswith("seed=")) + "\n" + body)
    rc = main(["simulate", "--netlist", str(net), "--stream-a", str(sa),
               "--stream-b", str(sb), "--out", str(tmp_path / "act.csv")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_cli_simulate_malformed_stream_word_exits_2(tmp_path, capsys):
    net, (sa, sb) = _simulate_inputs(tmp_path)
    lines = sa.read_text().split("\n")
    lines[6] = "+" + lines[6].lstrip("-")
    sa.write_text("\n".join(lines))
    assert _simulate_exit_code(tmp_path, net, sa, sb) == 2
    assert "stream line 7: not a decimal integer" in capsys.readouterr().err


def test_cli_simulate_malformed_netlist_exits_2(tmp_path, capsys):
    net, (sa, sb) = _simulate_inputs(tmp_path)
    lines = net.read_text().splitlines()
    # re-point one gate input at a net that nothing drives
    k = next(i for i, ln in enumerate(lines) if ln.startswith("gate "))
    fields = lines[k].split()
    fields = [f"in=999,{f.split(',')[1]}" if f.startswith("in=") else f
              for f in fields]
    lines[k] = " ".join(fields)
    net.write_text("\n".join(lines) + "\n")
    rc = main(["simulate", "--netlist", str(net), "--stream-a", str(sa),
               "--stream-b", str(sb), "--out", str(tmp_path / "act.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _rewrite_netlist(net, edit):
    """Apply `edit` to the lines of a netlist file in place."""
    net.write_text("\n".join(edit(net.read_text().splitlines())) + "\n")


def _simulate_exit_code(tmp_path, net, sa, sb):
    return main(["simulate", "--netlist", str(net), "--stream-a", str(sa),
                 "--stream-b", str(sb), "--out", str(tmp_path / "act.csv")])


def test_cli_simulate_netlist_header_without_width_exits_2(tmp_path, capsys):
    net, (sa, sb) = _simulate_inputs(tmp_path)
    _rewrite_netlist(net, lambda lines: ["arch=rca"] + lines[1:])
    assert _simulate_exit_code(tmp_path, net, sa, sb) == 2
    assert "arch=rca" in capsys.readouterr().err


def test_cli_simulate_truncated_net_line_exits_2(tmp_path, capsys):
    net, (sa, sb) = _simulate_inputs(tmp_path)
    _rewrite_netlist(net, lambda lines: [
        "net 3" if ln.startswith("net 3 ") else ln for ln in lines])
    assert _simulate_exit_code(tmp_path, net, sa, sb) == 2
    assert "'net 3'" in capsys.readouterr().err


def test_cli_simulate_unknown_primary_input_exits_2(tmp_path, capsys):
    net, (sa, sb) = _simulate_inputs(tmp_path)
    # an unrecognised operand pin would otherwise be tied low silently
    _rewrite_netlist(net, lambda lines: [
        ln.replace(" a3 pi", " x3 pi") for ln in lines])
    assert _simulate_exit_code(tmp_path, net, sa, sb) == 2
    assert "x3" in capsys.readouterr().err


def test_cli_simulate_net_id_gap_exits_2(tmp_path, capsys):
    net, (sa, sb) = _simulate_inputs(tmp_path)
    # shift every net id >= 20 up by one, in net, gate and outputs lines:
    # consistent, but the simulator and writers index nets by position
    net.write_text(re.sub(
        r"(net |out=|in=|,|outputs )(\d+)",
        lambda m: m[1] + str(int(m[2]) + (int(m[2]) >= 20)),
        net.read_text()))
    assert _simulate_exit_code(tmp_path, net, sa, sb) == 2
    assert "0..n-1" in capsys.readouterr().err


def test_python_m_rarenet_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["rarenet", "estimate", "--arch",
                                      "RCA:16", "--std", "1024", "--rho", "0.99"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("rarenet", run_name="__main__")
    assert exc.value.code == 0
    assert "bp1=11" in capsys.readouterr().out


def test_cli_malformed_arch_names_the_form(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--arch", "RCA", "--std", "1", "--rho", "0.5"])
    assert exc.value.code == 2
    assert ("argument --arch: 'RCA' is not KIND:WIDTH"
            in capsys.readouterr().err)
    # a typed integer is ASCII `-?[0-9]+`; a typed number is ASCII, no `_`
    estimate = ["estimate", "--std", "1024", "--rho", "0.99"]
    for argv, message in (
            ([*estimate, "--arch", "RCA:1_6"],
             "argument --arch: 'RCA:1_6' is not KIND:WIDTH"),
            ([*estimate, "--arch", "RCA:\u0661\u0666"],
             "argument --arch: 'RCA:\u0661\u0666' is not KIND:WIDTH"),
            (["estimate", "--arch", "RCA:16", "--std", "1_024",
              "--rho", "0.99"],
             "argument --std: invalid number value: '1_024'"),
            (["estimate", "--arch", "RCA:16", "--std", "1024",
              "--rho", "0.9_9"],
             "argument --rho: invalid number value: '0.9_9'"),
            (["gen-vectors", "--width", "1_6", "--std", "1", "--rho", "0",
              "--out", "s.txt"],
             "argument --width: invalid integer value: '1_6'"),
            ([*SIM_COMMANDS["compare"], "--vectors", "1e4"],
             "argument --vectors: invalid integer value: '1e4'"),
            ([*SIM_COMMANDS["compare"], "--seed", "\u0663"],
             "argument --seed: invalid integer value: '\u0663'"),
            ([*SIM_COMMANDS["sweep"], "--bp1", "+4"],
             "argument --bp1: invalid integer value: '+4'")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err, argv


def test_cli_estimate_prints_summary(capsys):
    rc = main(["estimate", "--arch", "RCA:16", "--std", "1024",
               "--rho", "0.99"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bp1=11" in out and "p_est=" in out


def test_cli_compare_writes_report(tmp_path, capsys):
    out = tmp_path / "rep.csv"
    rc = main(["compare", "--arch", "RCA:8", "--std", "16", "--rho", "0.9",
               "--vectors", "300", "--out", str(out)])
    assert rc == 0
    assert "error=" in capsys.readouterr().out
    assert out.read_text().startswith("arch,width,rho,sigma")


def test_cli_sweep_reports_mean_error(capsys):
    rc = main(["sweep", "--arch", "RCA:8", "--rho", "0.9",
               "--bp1", "4", "--bp1", "3", "--vectors", "300",
               "--threshold", "1e-3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.index("bp1=3") < out.index("bp1=4")
    assert "mean_error=" in out


def test_cli_sweep_repeated_target_exits_2(capsys):
    rc = main(["sweep", "--arch", "RCA:8", "--rho", "0.9", "--bp1", "3",
               "--bp1", "3", "--vectors", "300"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "bp1=" not in captured.out
    assert "twice" in captured.err


@pytest.mark.parametrize("target", ["-2", "2000"])
def test_cli_sweep_target_outside_word_exits_2(capsys, target):
    rc = main(["sweep", "--arch", "RCA:8", "--rho", "0.9", "--bp1", target,
               "--vectors", "300"])
    assert rc == 2
    assert "bp1=" not in capsys.readouterr().out


def test_cli_locate_annotates_rare_nets(capsys):
    rc = main(["locate", "--arch", "RCA:16", "--mean", "4096",
               "--std", "142", "--rho", "0.99", "--vectors", "2000",
               "--threshold", "1e-4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "vulnerable columns" in out
    assert "estimated region" in out


def test_cli_locate_no_sim(capsys):
    rc = main(["locate", "--arch", "RCA:16", "--std", "1024", "--rho", "0.99",
               "--no-sim"])
    assert rc == 0
    assert "simulated rare nets" not in capsys.readouterr().out


# One operating point per supported kind and width (rho = 0.99) for the
# two commands that estimate without simulating.  sigma = 2^(w/2), except
# at width 4, where sigma = 2 keeps mean +/- 3 sigma inside -8..7.
ESTIMATE_PATH_COMMANDS = [
    [command, "--arch", f"{kind}:{width}",
     "--std", str(2 if width == 4 else 2 ** (width // 2)),
     "--rho", "0.99", *extra]
    for kind in ADDERS + MULTS
    for width in ((4, 8, 16, 32) if kind in ADDERS else (4, 8, 16))
    for command, extra in (("estimate", []), ("locate", ["--no-sim"]))
]


def test_cli_estimate_and_locate_no_sim_match_golden(capsys):
    """Each command line, then its stdout, equals its chunk of the golden
    transcript."""
    golden = Path(__file__).parent / "data" / "estimate_paths.txt"
    chunks = re.split(r"(?m)^(?=\$ )", golden.read_text())[1:]
    assert len(chunks) == len(ESTIMATE_PATH_COMMANDS)
    for argv, chunk in zip(ESTIMATE_PATH_COMMANDS, chunks):
        rc = main(argv)
        line = "$ rarenet " + " ".join(argv) + "\n"
        assert (rc, line + capsys.readouterr().out) == (0, chunk)


# The commands that simulate and take --threshold, --vectors and --seed.
SIM_COMMANDS = {
    "compare": ["compare", "--arch", "RCA:8", "--std", "16", "--rho", "0.9"],
    "sweep": ["sweep", "--arch", "RCA:8", "--rho", "0.9", "--bp1", "4"],
    "locate": ["locate", "--arch", "RCA:8", "--std", "16", "--rho", "0.9"],
}


# locate --no-sim ignores --vectors and --seed but still checks --threshold
@pytest.mark.parametrize("command", [*sorted(SIM_COMMANDS), "locate-no-sim"])
def test_cli_rejects_threshold_outside_unit_interval(command, capsys):
    argv = (SIM_COMMANDS["locate"] + ["--no-sim"] if command == "locate-no-sim"
            else SIM_COMMANDS[command]) + ["--vectors", "300"]
    for bad in ("nan", "inf", "-1", "1.5"):
        assert main(argv + ["--threshold", bad]) == 2, bad
        out, err = capsys.readouterr()
        assert out == "" and "outside [0, 1]" in err, bad
    for edge in ("0", "1"):
        assert main(argv + ["--threshold", edge]) == 0, edge
    capsys.readouterr()


def test_cli_bad_threshold_fails_before_any_chain(capsys, monkeypatch):
    def no_chain(*args):
        raise AssertionError("built a chain under a threshold outside [0, 1]")

    for module in ("rarenet.estimate", "rarenet.stimulus"):
        monkeypatch.setattr(sys.modules[module], "unit_chain", no_chain)
    for argv in (["compare", "--arch", "VEDIC:16", "--std", "300",
                  "--rho", "0.99", "--vectors", "1000000"],
                 ["sweep", "--arch", "RCA:8", "--rho", "0.99", "--bp1", "3",
                  "--bp1", "4"]):
        assert main([*argv, "--threshold", "nan"]) == 2, argv[0]
        out, err = capsys.readouterr()
        assert out == "" and "threshold nan outside [0, 1]" in err


def test_rare_threshold_has_one_default():
    parser = cli._build_parser()
    for argv in SIM_COMMANDS.values():
        assert parser.parse_args(argv).threshold == RARE_THRESHOLD
    cfg = ExperimentConfig(architectures=(("RCA", 8),))
    assert cfg.thresholds == (RARE_THRESHOLD,)
    for fn in (compare,):
        default = inspect.signature(fn).parameters["threshold"].default
        assert default == RARE_THRESHOLD
    assert all(hasattr(rarenet, name) for name in rarenet.__all__)
    # so have the stream length and the seed
    defaults = (DEFAULT_VECTORS, DEFAULT_SEED)
    gen = ["gen-vectors", "--width", "8", "--std", "1", "--rho", "0",
           "--out", "s.txt"]
    for argv in (gen, *SIM_COMMANDS.values()):
        args = parser.parse_args(argv)
        assert (args.vectors, args.seed) == defaults, argv[0]
    assert (cfg.vectors, cfg.seed) == defaults
    for fn in (compare, sweep_bp1):
        params = inspect.signature(fn).parameters
        assert (params["stream_len"].default,
                params["seed"].default) == defaults, fn.__name__


def test_cli_estimate_paths_check_the_range(capsys):
    for argv in (["estimate"], ["locate", "--no-sim"]):
        for stats in (["--std", "1e300"], ["--std", "1024", "--std-b", "1e9"]):
            rc = main([*argv, "--arch", "RCA:16", *stats, "--rho", "0.99"])
            out, err = capsys.readouterr()
            assert (rc, out) == (2, "")
            assert "target mean +/- 3 sigma exceeds the 16-bit range" in err


def test_cli_parser_is_built_once_and_reused(capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    # an `append` option starts empty on every call
    for target in ("3", "4"):
        assert main(["sweep", "--arch", "RCA:8", "--rho", "0.9", "--bp1",
                     target, "--vectors", "300", "--threshold", "1e-3"]) == 0
        points = [ln for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("bp1=")]
        assert [p.split()[0] for p in points] == [f"bp1={target}"]
    # an option given once does not stay set for the next call
    sigmas_b = []

    def spy(netlist, stats_a, stats_b, *args):
        sigmas_b.append(stats_b.std_dev)
        return compare(netlist, stats_a, stats_b, *args)

    monkeypatch.setattr(cli, "compare", spy)
    base = ["compare", "--arch", "RCA:8", "--std", "16", "--rho", "0.9",
            "--vectors", "300"]
    assert main(base + ["--std-b", "9"]) == 0
    assert main(base) == 0
    assert sigmas_b == [9.0, 16.0]
    capsys.readouterr()
    # a usage error leaves the parser able to parse the next call
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--arch", "RCA:8"])
    assert exc.value.code == 2
    assert main(["estimate", "--arch", "RCA:16", "--std", "1024",
                 "--rho", "0.99"]) == 0
    assert capsys.readouterr().out.startswith("arch=rca width=16 bp0=8 bp1=11")


def test_cli_rejects_invalid_stats(capsys):
    assert main(["estimate", "--arch", "RCA:16", "--std", "-5",
                 "--rho", "0.99"]) == 2
    assert main(["estimate", "--arch", "RCA:16", "--std", "1024",
                 "--rho", "1.5"]) == 2
    capsys.readouterr()
    assert main([*SIM_COMMANDS["compare"], "--seed", "-3"]) == 2
    assert "error: seed must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--std", "nan", "std_dev must be finite and >= 0, got nan"),
    ("--mean", "inf", "mean must be finite, got inf"),
])
def test_cli_estimate_rejects_non_finite_stats(flag, value, message, capsys):
    argv = ["estimate", "--arch", "RCA:16", "--std", "1024", "--rho", "0.99"]
    assert main([*argv, flag, value]) == 2
    assert message in capsys.readouterr().err


def test_cli_simulate_stream_header_nan_sigma_exits_2(tmp_path, capsys):
    net, (sa, sb) = _simulate_inputs(tmp_path)
    sa.write_text(re.sub(r"sigma=\S+", "sigma=nan", sa.read_text(), count=1))
    assert _simulate_exit_code(tmp_path, net, sa, sb) == 2
    assert "std_dev must be finite and >= 0, got nan" in capsys.readouterr().err


def assert_trees_identical(d1: Path, d2: Path):
    cmp = filecmp.dircmp(d1, d2)
    assert not cmp.left_only and not cmp.right_only and not cmp.diff_files
    for name, sub in cmp.subdirs.items():
        assert not sub.left_only and not sub.right_only and not sub.diff_files


def test_cli_replicate_is_deterministic(tmp_path):
    cfg = small_config(vectors=300)
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["replicate", "--config", str(path), "--out", str(d)]) == 0
    assert (d1 / "manifest.txt").read_text().startswith("status=complete\n")
    assert (d1 / "reports" / "summary.csv").exists()
    assert_trees_identical(d1, d2)


def test_cli_replicate_bad_config_exits_2(tmp_path):
    path = tmp_path / "bad.cfg"
    for text in ("vectors = 100\n",
                 "architectures = RCA:8\nstd_a = 16\n",
                 "architectures = RCA:8\nthresholds = 1e-4, 1e-3\n",
                 "architectures = RCA:8\nrho_a = 1.0\n",
                 "architectures = RCA:8\nrho_b = 1.5\n",
                 "architectures = RCA:8\nseed = -1\n",
                 "architectures = RCA:8\nbp1_targets = -3\n",
                 "architectures = RCA:8\narchitectures = CKA:8\n",
                 "architectures = RCA:12\n",
                 "architectures = FOO:8\n",
                 "architectures = RCA:8, rca:8\n",
                 "architectures = RCA:8\nbp1_targets = 3, 3\n"):
        path.write_text(text)
        assert main(["replicate", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2, text
        assert not (tmp_path / "o").exists(), text


GOLDEN_BATCH = Path(__file__).parent / "data" / "replicate_rca8_booth8"


def test_cli_replicate_matches_golden_reports(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("architectures = RCA:8, BOOTH:8\nvectors = 2000\n"
                    "thresholds = 1e-3\nbp1_targets = 3, 4\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["replicate", "--config", str(path), "--out", str(out)]) == 0
    for rel in ("manifest.txt", "reports/summary.csv",
                "reports/sweep_rca8.csv", "reports/sweep_booth8.csv"):
        assert (out / rel).read_bytes() == (GOLDEN_BATCH / rel).read_bytes(), rel


def test_cli_replicate_solves_sigma_per_operand(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("architectures = RCA:8\nvectors = 400\n"
                    "thresholds = 1e-3\nbp1_targets = 3, 4\n"
                    "rho_a = 0.99\nrho_b = 0.5\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["replicate", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "reports" / "sweep_rca8.csv", newline="") as fh:
        assert [int(r["bp1"]) for r in csv.DictReader(fh)] == [3, 4]


def test_cli_replicate_report_matches_sweep(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("architectures = RCA:8\nvectors = 400\n"
                    "thresholds = 1e-3\nbp1_targets = 4, 2, 3\n"
                    "rho_a = 0.9\nrho_b = 0.9\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["replicate", "--config", str(path), "--out", str(out)]) == 0
    res = sweep_bp1(build_architecture("RCA", 8), 0.9, 1e-3, (4, 2, 3),
                    stream_len=400, seed=5)
    write_report_csv(res.reports, tmp_path / "sweep.csv")
    assert ((out / "reports" / "sweep_rca8.csv").read_bytes()
            == (tmp_path / "sweep.csv").read_bytes())


def test_replicate_packs_each_width_once_and_counts_each_netlist_once(
        tmp_path, monkeypatch):
    from rarenet import estimate

    packed, log = [], tmp_path / "census.log"

    def counting_pack(width, pairs):
        packed.append(width)
        return pack(width, pairs)

    def counting_census(netlist, points):
        # a file, not a list: worker processes run censuses too
        with open(log, "a") as fh:
            fh.write(f"{netlist.name} {netlist.width} {len(points.lengths)}\n")
        return count(netlist, points)

    pack, count = cli.pack_points, estimate.census
    monkeypatch.setattr(cli, "pack_points", counting_pack)
    monkeypatch.setattr(estimate, "census", counting_census)
    cfg = small_config(architectures=(("RCA", 8), ("BOOTH", 8), ("CKA", 16)),
                       vectors=300, bp1_targets=(3, 4, 5))
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    assert main(["replicate", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    counted = [(name, int(width), int(points)) for name, width, points
               in map(str.split, log.read_text().splitlines())]
    assert sorted(packed) == [8, 16]
    assert sorted(counted) == [("booth", 8, 3), ("cka", 16, 3), ("rca", 8, 3)]


def _replicate_with_cpus(monkeypatch, cpus, cfg, out, fork=os.fork):
    """`replicate` that sees `cpus` as the usable CPUs and starts worker
    processes with `fork`; returns its exit code and the forks it tried."""
    forks = []

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    monkeypatch.setattr(os, "fork", counting_fork)
    save_config(cfg, out.parent / f"{out.name}.cfg")
    code = main(["replicate", "--config", str(out.parent / f"{out.name}.cfg"),
                 "--out", str(out)])
    return code, len(forks)


def _no_fork():
    raise OSError("fork: resource temporarily unavailable")


def test_replicate_tree_is_the_same_for_every_worker_count(tmp_path,
                                                            monkeypatch):
    """Also when no worker can be forked: each share then runs in the
    `replicate` process."""
    cfg = small_config(architectures=(
        ("RCA", 8), ("BOOTH", 8), ("CKA", 8), ("DADDA", 8), ("KSA", 8),
        ("ARRAY", 16), ("CLA", 16), ("VEDIC", 16)), vectors=300,
        bp1_targets=(3, 4, 5))
    runs = {}
    for name, cpus, fork in (("cpus1", {0}, os.fork),
                             ("cpus2", {0, 1}, os.fork),
                             ("cpus4", {0, 1, 2, 3}, os.fork),
                             ("no_fork", {0, 1, 2, 3}, _no_fork)):
        runs[name] = _replicate_with_cpus(monkeypatch, cpus, cfg,
                                          tmp_path / name, fork)
        assert_trees_identical(tmp_path / "cpus1", tmp_path / name)
    # per width, a worker per CPU after the first, while architectures last
    assert runs == {"cpus1": (0, 0), "cpus2": (0, 1 + 1),
                    "cpus4": (0, 3 + 2), "no_fork": (0, 3 + 2)}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# BOOTH:8 has the most gates, so it is the parent's share; RCA:8 a worker's,
# or with "fallback", where `os.fork` fails, the parent's second share
@pytest.mark.parametrize("failing, named", [
    ("parent", "booth8_bp4.csv"), ("worker", "rca8_bp4.csv"),
    ("both", "rca8_bp4.csv"), ("fallback", "rca8_bp4.csv")])
def test_replicate_failing_share_keeps_written_files_and_reaps_workers(
        tmp_path, monkeypatch, capsys, failing, named):
    """The second point of an architecture fails to export: the run
    reports the failure of the first architecture in config order, once,
    and the manifest lists exactly the files that exist."""
    parent, export = os.getpid(), cli.export_activity

    def failing_export(netlist, profile, path):
        where = "parent" if os.getpid() == parent else "worker"
        if (path.name.endswith("_bp4.csv")
                and failing in (where, "both", "fallback")):
            raise OSError(f"cannot write {path.name}")
        return export(netlist, profile, path)

    monkeypatch.setattr(cli, "export_activity", failing_export)
    cfg = small_config(architectures=(("RCA", 8), ("BOOTH", 8), ("CKA", 16)),
                       vectors=300, bp1_targets=(3, 4))
    out = tmp_path / "out"
    fork = _no_fork if failing == "fallback" else os.fork
    assert _replicate_with_cpus(monkeypatch, {0, 1}, cfg, out, fork) == (1, 1)
    _assert_no_child_left()
    assert capsys.readouterr() == ("", f"error: cannot write {named}\n")
    status, *listed = (out / "manifest.txt").read_text().splitlines()
    assert status == "status=incomplete"
    files = {str(path.relative_to(out)) for path in out.rglob("*")
             if path.is_file()} - {"manifest.txt"}
    assert sorted(files) == listed
    assert {"activity/rca8_bp3.csv", "activity/booth8_bp3.csv"} <= files
    assert f"activity/{named}" not in files


def test_replicate_reports_a_worker_that_exits_without_results(
        tmp_path, monkeypatch, capsys):
    parent, export = os.getpid(), cli.export_activity

    def dying_export(netlist, profile, path):
        if os.getpid() != parent:
            os._exit(3)
        return export(netlist, profile, path)

    monkeypatch.setattr(cli, "export_activity", dying_export)
    cfg = small_config(architectures=(("RCA", 8), ("BOOTH", 8)), vectors=300)
    out = tmp_path / "out"
    assert _replicate_with_cpus(monkeypatch, {0, 1}, cfg, out) == (1, 1)
    _assert_no_child_left()
    assert (capsys.readouterr().err
            == "error: worker process exited with status 3\n")
    assert (out / "manifest.txt").read_text().startswith("status=incomplete\n")


def test_replicate_interrupted_leaves_an_incomplete_manifest(tmp_path,
                                                             monkeypatch):
    """An interrupt is not reported as a failure: it propagates, and the
    manifest still marks the run incomplete and lists the files written."""
    def interrupted_export(netlist, profile, path):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "export_activity", interrupted_export)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        _replicate_with_cpus(monkeypatch, {0},
                             small_config(architectures=(("RCA", 8),)), out)
    status, *listed = (out / "manifest.txt").read_text().splitlines()
    assert status == "status=incomplete"
    files = {str(path.relative_to(out)) for path in out.rglob("*")
             if path.is_file()} - {"manifest.txt"}
    assert sorted(files) == listed


def test_replicate_builds_one_chain_pair_for_every_width(tmp_path,
                                                         monkeypatch):
    """Both widths quantise the same two AR(1) chains, yet every saved
    stream is `generate`'s for its own target, word for word."""
    from rarenet import estimate
    built = []

    def counting_chain(rho, length, seed):
        built.append((rho, seed))
        return unit_chain(rho, length, seed)

    monkeypatch.setattr(estimate, "unit_chain", counting_chain)
    cfg = small_config(architectures=(("RCA", 8), ("CKA", 16)),
                       rho_a=0.99, rho_b=0.9, vectors=300, bp1_targets=(3, 5))
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    out = tmp_path / "out"
    assert main(["replicate", "--config", str(path), "--out", str(out)]) == 0
    assert built == [(0.99, 5), (0.9, 6)]
    assert len(list((out / "streams").iterdir())) == 8
    for width, t in itertools.product((8, 16), (3, 5)):
        for tag, st, seed in zip("ab", operand_stats(width, t, 0.99, 0.9),
                                 (5, 6)):
            text = (out / f"streams/w{width}_bp{t}_{tag}.txt").read_text()
            assert text == dump_stream(generate(st, 300, seed))


def test_replicate_frees_the_chains_before_the_last_width_is_packed(
        tmp_path, monkeypatch):
    """Every width shares the two AR(1) chains, but nothing holds them once
    the last width's streams exist, so its census runs without them."""
    from rarenet import estimate
    chains, alive = [], []

    def tracked_chain(rho, length, seed):
        chain = unit_chain(rho, length, seed)
        chains.append(weakref.ref(chain))
        return chain

    def checked_pack(width, pairs):
        alive.append((width, sum(ref() is not None for ref in chains)))
        return pack(width, pairs)

    pack = cli.pack_points
    for module in (cli, estimate):  # whichever module builds the chains
        if hasattr(module, "unit_chain"):
            monkeypatch.setattr(module, "unit_chain", tracked_chain)
    monkeypatch.setattr(cli, "pack_points", checked_pack)
    cfg = small_config(architectures=(("RCA", 8), ("CKA", 16)), vectors=300,
                       bp1_targets=(3, 5))
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    assert main(["replicate", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(chains) == 2
    assert alive == [(8, 2), (16, 0)]


def test_commands_import_no_package_but_numpy(tmp_path):
    """`estimate`, `compare` and a small `replicate` import nothing beyond
    the standard library, numpy and rarenet: an undeclared package such as
    scipy would cost every command its import time.  Nor do they load
    `multiprocessing` or `concurrent`: `replicate`'s workers are forked
    with `os` alone."""
    cfg = small_config(architectures=(("RCA", 8), ("BOOTH", 8)), vectors=300,
                       output_dir=str(tmp_path / "out"))
    save_config(cfg, tmp_path / "run.cfg")
    stats = ["--arch", "CKA:16", "--std", "300", "--rho", "0.99"]
    commands = [["estimate", *stats], ["compare", *stats, "--vectors", "300"],
                ["replicate", "--config", str(tmp_path / "run.cfg")]]
    script = f"""
import sys
import numpy, numpy.random
before = {{name.partition(".")[0] for name in sys.modules}}
from rarenet.cli import main
for argv in {commands!r}:
    assert main(argv) == 0, argv
loaded = {{name.partition(".")[0] for name in sys.modules}} - before
print(sorted(loaded - sys.stdlib_module_names - {{"rarenet"}}))
print(sorted({{"multiprocessing", "concurrent"}}
             & {{name.partition(".")[0] for name in sys.modules}}))
"""
    src = str(Path(rarenet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["[]", "[]"]


def test_cli_simulate_bad_stream_header_exits_2(tmp_path, capsys):
    net, (sa, sb) = _simulate_inputs(tmp_path)
    sa.write_text(sa.read_text().replace("width=4", "width=x", 1))
    assert _simulate_exit_code(tmp_path, net, sa, sb) == 2
    assert ("error: stream header width='x' is not an integer"
            in capsys.readouterr().err)


@pytest.mark.parametrize("text, message", [
    ("architectures = RCA:8\nvectors = 1e5\n", "line 2: vectors: "),
    ("architectures = RCA:8\nbp1_targets = 3, x\n", "line 2: bp1_targets: "),
    ("architectures = RCA:8\nrho_a = high\n", "line 2: rho_a: "),
    ("# batch\narchitectures = RCA\n",
     "line 2: architectures: 'RCA' is not KIND:WIDTH$"),
    ("architectures = RCA:1_6\n",
     "line 1: architectures: 'RCA:1_6' is not KIND:WIDTH$"),
    ("architectures = RCA:\u0661\u0666\n",
     "line 1: architectures: 'RCA:\u0661\u0666' is not KIND:WIDTH$"),
    ("architectures = RCA:8\nvectors = 1_000\n",
     "line 2: vectors: '1_000' is not an integer$"),
    ("architectures = RCA:8\nseed = \u0663\n",
     "line 2: seed: '\u0663' is not an integer$"),
    ("architectures = RCA:8\nbp1_targets = 3, +4\n",
     "line 2: bp1_targets: '\\+4' is not an integer$"),
    ("architectures = RCA:8\nrho_a = 0.9_9\n",
     "line 2: rho_a: '0.9_9' is not a number$"),
    ("architectures = RCA:8\nthresholds = \u0661e-4\n",
     "line 2: thresholds: '\u0661e-4' is not a number$"),
])
def test_config_value_error_names_key_and_line(text, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        parse(text)


def test_cli_replicate_width_with_no_fitting_target_exits_2(tmp_path, capsys):
    # bp1 = 12 fits the 16-bit word but not the 8-bit one, whose sweep would
    # be empty and whose mean error would read nan
    path = tmp_path / "run.cfg"
    path.write_text("architectures=RCA:8,RCA:16\nbp1_targets=12\n"
                    "vectors=200\n")
    out = tmp_path / "o"
    assert main(["replicate", "--config", str(path), "--out", str(out)]) == 2
    assert "no bp1 target of [12] fits the 8-bit word" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rel", ["taken", "taken/sub"])
def test_cli_replicate_unusable_out_is_one_error(tmp_path, capsys, rel):
    # --out is an existing file, or a path through one
    path = tmp_path / "run.cfg"
    save_config(small_config(vectors=200), path)
    (tmp_path / "taken").write_text("kept\n")
    assert main(["replicate", "--config", str(path),
                 "--out", str(tmp_path / rel)]) == 1
    out, err = capsys.readouterr()
    assert (out, err.count("error:"), err.count("\n")) == ("", 1, 1), err
    assert (tmp_path / "taken").read_text() == "kept\n"
