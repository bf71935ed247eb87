import subprocess
import sys

import pytest

from securecast.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_equivocate_3t_clean(capsys, tmp_path):
    trace = tmp_path / "run.trace"
    code, out, _ = run_cli(capsys, "simulate", "--protocol", "3t", "--n", "31",
                           "--t", "10", "--adversary", "equivocate",
                           "--seed", "7", "--trace-out", str(trace))
    assert code == 0
    assert "conflicts=0" in out
    assert trace.exists()


def test_simulate_rejects_act_capacity(capsys):
    code, _, err = run_cli(capsys, "simulate", "--protocol", "act", "--n", "10",
                           "--t", "3", "--kappa", "4", "--delta", "10")
    assert code == 1
    assert "kappa*delta" in err


def test_simulate_deterministic_bytes(capsys, tmp_path):
    out1, out2 = tmp_path / "a.trace", tmp_path / "b.trace"
    for path in (out1, out2):
        code, _, _ = run_cli(capsys, "simulate", "--protocol", "e", "--n", "4",
                             "--t", "1", "--messages", "1", "--seed", "0",
                             "--trace-out", str(path))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_records_a_trace_only_with_trace_out(capsys, tmp_path,
                                                      monkeypatch):
    from securecast import cli, simnet
    worlds = []

    def build(cfg):
        worlds.append(simnet.build_world(cfg))
        return worlds[-1]
    monkeypatch.setattr(cli, "build_world", build)
    flags = ["simulate", "--protocol", "3t", "--n", "13", "--t", "4",
             "--adversary", "crash", "--drop-prob", "0.1", "--messages", "3",
             "--seed", "5"]
    code, plain, _ = run_cli(capsys, *flags)
    assert code == 0
    assert worlds[-1].trace is None
    trace = tmp_path / "run.trace"
    code, traced, _ = run_cli(capsys, *flags, "--trace-out", str(trace))
    assert code == 0
    assert worlds[-1].trace
    assert trace.read_text() == worlds[-1].trace_text()
    assert plain == traced


def test_analyze_row(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--n", "100", "--t", "10",
                           "--kappa", "3", "--delta", "5")
    assert code == 0
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["p_faulty_active"] == "0.001"
    assert cells["probe_miss"].startswith("0.11177")
    assert cells["conflict_bound"].startswith("0.11266")
    assert cells["load_ff_act"] == "0.18"
    assert cells["load_ff_3t"] == "0.21"
    assert cells["load_fail_act"] == "0.49"
    assert cells["load_fail_3t"] == "0.31"


def test_analyze_and_sweep_print_an_infinite_bound_at_kappa_equal_n(capsys):
    code, out, err = run_cli(capsys, "analyze", "--n", "3", "--t", "1",
                             "--kappa", "3", "--slack-c", "1")
    assert code == 0 and not err
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["p_kappa_c_bound"] == "inf"
    code, out, err = run_cli(capsys, "sweep", "--grid", "kappa=1..4",
                             "--n", "4", "--t", "1", "--delta", "1",
                             "--slack-c", "1")
    assert code == 0 and not err
    header, *rows = out.strip().splitlines()
    bound = header.split(",").index("p_kappa_c_bound")
    assert [r.split(",")[bound] for r in rows][-1] == "inf"
    assert len(rows) == 4


def test_analyze_epsilon_solver(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--n", "100", "--t", "10",
                           "--epsilon", "0.001")
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("epsilon"))
    cells = line.split(",")
    assert float(cells[-1]) <= 0.001


def test_analyze_epsilon_solver_honours_slack(capsys):
    from securecast.analysis import AnalysisParams, overall_conflict_bound
    code, out, _ = run_cli(capsys, "analyze", "--n", "100", "--t", "10",
                           "--kappa", "3", "--delta", "5", "--slack-c", "1",
                           "--epsilon", "0.01")
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("epsilon"))
    cells = line.split(",")
    k, d = int(cells[3]), int(cells[5])
    bound = overall_conflict_bound(AnalysisParams(100, 10, k, d, 1)).specific
    assert k >= 1 and bound <= 0.01
    assert float(cells[-1]) == pytest.approx(bound, rel=1e-5)


def test_analyze_rejects_bad_params(capsys):
    code, _, err = run_cli(capsys, "analyze", "--n", "3", "--t", "2")
    assert code == 1 and "t" in err


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--protocol", "e", "--n", "7", "--t", "2",
      "--adversary", "silent", "--num-faulty", "-1"), "num_faulty: must be >= 0"),
    (("simulate", "--protocol", "act", "--n", "13", "--t", "4", "--kappa", "2",
      "--delta", "3", "--slack-c", "-1"), "slack_c: need 0 <= slack C"),
    (("analyze", "--n", "100", "--t", "10", "--kappa", "3",
      "--delta", "-2"), "delta must be >= 0"),
    (("analyze", "--n", "100", "--t", "10", "--kappa", "-2"),
     "kappa must be >= 0"),
    (("analyze", "--n", "10", "--t", "1", "--kappa", "2",
      "--slack-c", "-1"), "slack_c must be >= 0"),
    (("analyze", "--n", "0", "--t", "0"), "n must be >= 1"),
    (("simulate", "--protocol", "e", "--n", "4", "--t", "1",
      "--adversary", "crash", "--crash-after", "-3"), "crash_after"),
    (("simulate", "--latency-hi", "0"), "latency_hi: need latency_hi >="),
    (("simulate", "--latency-hi", str(10 ** 12)), "latency_hi: must be <="),
])
def test_negative_counts_are_config_errors(capsys, argv, message):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("argv", [
    ("montecarlo", "--protocol", "act", "--n", "31", "--t", "10",
     "--kappa", "3", "--delta", "5", "--adversary", "regime-split"),
    ("sweep", "--grid", "delta=4..5", "--n", "31", "--t", "10",
     "--kappa", "3", "--montecarlo"),
])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_montecarlo_rejects_too_few_trials(capsys, argv, trials):
    code, out, err = run_cli(capsys, *argv, "--trials", trials)
    assert code == 1
    assert err.startswith("config error: trials") and "PASS" not in out


MC_ARGV = ("montecarlo", "--protocol", "act", "--n", "31", "--t", "10",
           "--kappa", "3", "--delta", "5", "--adversary", "regime-split",
           "--seed", "50", "--trials", "20")


def test_montecarlo_refuses_a_config_asking_for_stability(capsys, tmp_path):
    # Monte Carlo worlds run without the oracle: a config line turning it
    # on is refused, one turning it off changes nothing.
    code, plain, _ = run_cli(capsys, *MC_ARGV)
    assert code == 0
    cfgfile = tmp_path / "run.conf"
    cfgfile.write_text("stability = true\n")
    code, out, err = run_cli(capsys, *MC_ARGV, "--config", str(cfgfile))
    assert code == 1 and out == ""
    assert err.startswith("config error: stability:")
    cfgfile.write_text("stability = false\n")
    code, out, _ = run_cli(capsys, *MC_ARGV, "--config", str(cfgfile))
    assert code == 0 and out == plain


SWEEP_ARGV = ("sweep", "--grid", "delta=5..5", "--n", "31", "--t", "10",
              "--kappa", "3", "--montecarlo", "--trials", "20")


@pytest.mark.parametrize("argv", [MC_ARGV, SWEEP_ARGV])
@pytest.mark.parametrize("cap", ["abc", "0", "-2", "1.5"])
def test_bad_thread_cap_is_a_config_error(capsys, monkeypatch, argv, cap):
    monkeypatch.setenv("SECURECAST_THREADS", cap)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("config error: SECURECAST_THREADS:")
    assert "PASS" not in out


@pytest.mark.parametrize("argv", [MC_ARGV, SWEEP_ARGV])
def test_thread_cap_unset_or_valid_gives_the_same_rows(capsys, monkeypatch,
                                                       argv):
    monkeypatch.delenv("SECURECAST_THREADS", raising=False)
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0 and "PASS" in plain
    for cap in ("", "1", "4"):
        monkeypatch.setenv("SECURECAST_THREADS", cap)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == plain, cap


def test_montecarlo_pass(capsys):
    code, out, _ = run_cli(capsys, "montecarlo", "--protocol", "act",
                           "--n", "31", "--t", "10", "--kappa", "3",
                           "--delta", "5", "--adversary", "regime-split",
                           "--seed", "50", "--trials", "150")
    assert code == 0
    assert ",PASS" in out


def test_montecarlo_insufficient_trials_warns(capsys):
    code, out, err = run_cli(capsys, "montecarlo", "--protocol", "act",
                             "--n", "31", "--t", "10", "--kappa", "3",
                             "--delta", "5", "--adversary", "regime-split",
                             "--seed", "50", "--trials", "10")
    assert "insufficient trials" in err


def test_montecarlo_no_adversary_estimates_zero(capsys):
    code, out, _ = run_cli(capsys, "montecarlo", "--protocol", "act",
                           "--n", "13", "--t", "4", "--kappa", "2",
                           "--delta", "3", "--seed", "1", "--trials", "20")
    assert code == 0
    row = out.strip().splitlines()[-1]
    assert row.split(",")[3] == "0"


@pytest.mark.parametrize("extra", [(), ("--adversary", "silent"),
                                   ("--messages", "0")],
                         ids=["none", "silent", "no-messages"])
def test_montecarlo_without_an_attack_reads_none(capsys, extra):
    # nothing attacked: the row cannot pass or fail, and stderr says why
    code, out, err = run_cli(capsys, "montecarlo", "--protocol", "act",
                             "--n", "31", "--t", "10", "--kappa", "3",
                             "--delta", "5", "--trials", "20", *extra)
    assert code == 0
    assert out.strip().splitlines()[-1] == "20,0,0,0,0,1,0.141589,NONE"
    assert "warning: no message was attacked" in err


def test_montecarlo_seq_burner_counts_every_multicast(capsys):
    # The bound is per message, so the burner's fillers are trials too.
    code, out, _ = run_cli(capsys, "montecarlo", "--protocol", "act",
                           "--n", "13", "--t", "4", "--kappa", "2",
                           "--delta", "3", "--adversary", "seq-burner",
                           "--messages", "4", "--trials", "100",
                           "--seed", "3")
    row = out.strip().splitlines()[-1].split(",")
    assert code == 0
    assert row[1] == "400" and row[-1] == "PASS"


def test_sweep_monotone_surface(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--grid", "kappa=1..4,delta=1..6",
                           "--n", "100", "--t", "10")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    idx = {name: header.index(name) for name in ("kappa", "delta",
                                                 "conflict_bound")}
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 24
    table = {(int(r[idx["kappa"]]), int(r[idx["delta"]])):
             float(r[idx["conflict_bound"]]) for r in rows}
    for (k, d), v in table.items():
        if (k + 1, d) in table:
            assert table[(k + 1, d)] < v
        if (k, d + 1) in table:
            assert table[(k, d + 1)] < v


def test_sweep_with_montecarlo_stays_below_bounds(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--grid", "delta=4..5",
                           "--n", "31", "--t", "10", "--kappa", "3",
                           "--seed", "11", "--montecarlo", "--trials", "120")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    est, bound = header.index("estimate"), header.index("conflict_bound")
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[-1] == "PASS"
        assert float(cells[est]) <= float(cells[bound]) + 0.2  # CI slack
    assert len(lines) == 3


def test_sweep_empty_grid_header_only(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--grid", "")
    assert code == 0
    assert out.strip().splitlines() == [out.strip().splitlines()[0]]


def test_sweep_skips_negative_delta(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--grid", "delta=-2..0",
                           "--n", "100", "--t", "10", "--kappa", "3")
    assert code == 0
    header, *rows = out.strip().splitlines()
    delta = header.split(",").index("delta")
    assert [r.split(",")[delta] for r in rows] == ["0"]


def test_sweep_keeps_explicit_zeros(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--grid", "kappa=1..2",
                           "--n", "30", "--t", "0", "--delta", "0")
    assert code == 0
    header, *rows = out.strip().splitlines()
    cols = header.split(",")
    t, delta = cols.index("t"), cols.index("delta")
    assert len(rows) == 2
    assert all(r.split(",")[t] == "0" and r.split(",")[delta] == "0"
               for r in rows)


def test_sweep_montecarlo_skips_points_the_simulator_rejects(capsys):
    # n=30, t=10 has a bound but no 3t+1 witness range to simulate
    code, out, err = run_cli(capsys, "sweep", "--grid", "t=9..10",
                             "--n", "30", "--kappa", "1", "--delta", "5",
                             "--montecarlo", "--trials", "2")
    assert code == 0
    header, *rows = out.strip().splitlines()
    t = header.split(",").index("t")
    assert [r.split(",")[t] for r in rows] == ["9"]
    # two trials are too few for the bound, and sweep says so
    assert "warning: n=30 t=9 " in err and "insufficient trials" in err


def test_sweep_malformed_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "--grid", "kappa=banana")
    assert code == 1 and "grid" in err


def test_trace_check_roundtrip(capsys, tmp_path):
    trace = tmp_path / "clean.trace"
    run_cli(capsys, "simulate", "--protocol", "e", "--n", "4", "--t", "1",
            "--seed", "0", "--trace-out", str(trace))
    code, out, _ = run_cli(capsys, "trace-check", str(trace))
    assert code == 0 and "trace clean" in out


def test_trace_check_flags_corruption(capsys, tmp_path):
    trace = tmp_path / "bad.trace"
    run_cli(capsys, "simulate", "--protocol", "e", "--n", "4", "--t", "1",
            "--seed", "0", "--trace-out", str(trace))
    lines = trace.read_text().splitlines()
    dup = next(l for l in lines if l.split(" ")[1] == "appdlv")
    trace.write_text("\n".join(lines + [dup]) + "\n")
    code, _, err = run_cli(capsys, "trace-check", str(trace))
    assert code == 2 and "Integrity" in err


def test_trace_check_parse_error(capsys, tmp_path):
    bad = tmp_path / "junk.trace"
    bad.write_text("garbage\n")
    code, _, err = run_cli(capsys, "trace-check", str(bad))
    assert code == 1 and "parse error" in err


def test_trace_check_bad_signer_id_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "signers.trace"
    bad.write_text("0 meta - - E meta - - n=4;t=1;kappa=0;slack=0;"
                   "witness_seed=1\n"
                   "1 mcast 0 - E mcast 0:1 abcd -\n"
                   "2 appdlv 1 - - deliver 0:1 abcd signers.E=1:x\n")
    code, _, err = run_cli(capsys, "trace-check", str(bad))
    assert code == 1 and err.startswith("parse error: line 3: ")


def test_trace_check_undecodable_file_is_a_parse_error(capsys, tmp_path):
    trace = tmp_path / "clean.trace"
    run_cli(capsys, "simulate", "--protocol", "e", "--n", "4", "--t", "1",
            "--seed", "0", "--trace-out", str(trace))
    capsys.readouterr()
    trace.write_bytes(trace.read_bytes() + b"7 recv 1 2 E ack 0:1 \xff\xfe -\n")
    code, out, err = run_cli(capsys, "trace-check", str(trace))
    assert code == 1 and out == ""
    assert err.startswith("parse error: ") and "decode" in err


def test_trace_check_directory_is_unreadable(capsys, tmp_path):
    code, out, err = run_cli(capsys, "trace-check", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("cannot read trace: ")


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_simulate_unwritable_trace_out_is_a_config_error(capsys, tmp_path,
                                                          monkeypatch, where):
    """A --trace-out path that cannot be written is refused before the
    world runs."""
    from securecast import simnet
    ran = []
    monkeypatch.setattr(simnet.SimWorld, "run_to_quiescence",
                        lambda world, *a: ran.append(world))
    path = tmp_path / "absent" / "run.trace" if where == "missing-dir" \
        else tmp_path
    code, out, err = run_cli(capsys, "simulate", "--protocol", "e", "--n",
                             "4", "--t", "1", "--trace-out", str(path))
    assert code == 1 and out == "" and not ran
    assert err.startswith(f"config error: trace_out: {path}: ")
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_sweep_unwritable_out_is_a_config_error(capsys, tmp_path,
                                                monkeypatch, where):
    from securecast import cli
    monkeypatch.setattr(cli, "bound_report", None)  # the sweep never starts
    path = tmp_path / "absent" / "rows.csv" if where == "missing-dir" \
        else tmp_path
    code, out, err = run_cli(capsys, "sweep", "--grid", "kappa=1..2",
                             "--n", "31", "--t", "10", "--delta", "3",
                             "--out", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"config error: out: {path}: ")


def test_config_file_flags_override(capsys, tmp_path):
    cfgfile = tmp_path / "run.conf"
    cfgfile.write_text("protocol = 3t\nn = 13\nt = 4\nseed = 5\n# comment\n")
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfgfile),
                           "--seed", "9")
    assert code == 0
    assert "protocol=3t" in out and "seed=9" in out


@pytest.mark.parametrize("line", ["n = abc", "p_drop = often",
                                  "stability = ture", "stability ="])
def test_config_file_rejects_bad_values(capsys, tmp_path, line):
    cfgfile = tmp_path / "run.conf"
    cfgfile.write_text(f"protocol = 3t\nn = 13\nt = 4\n{line}\n")
    trace = tmp_path / "run.trace"
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfgfile),
                             "--trace-out", str(trace))
    assert code == 1 and out == ""
    assert err.startswith("config error: config") and ":4: bad value" in err
    assert not trace.exists()


@pytest.mark.parametrize("word, stable", [("true", True), ("YES", True),
                                          ("1", True), ("false", False),
                                          ("No", False), ("0", False)])
def test_config_file_booleans(capsys, tmp_path, word, stable):
    cfgfile = tmp_path / "run.conf"
    cfgfile.write_text(f"protocol = 3t\nn = 13\nt = 4\nstability = {word}\n")
    trace = tmp_path / "run.trace"
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfgfile),
                         "--trace-out", str(trace))
    assert code == 0
    records = [line for line in trace.read_text().splitlines()
               if line.split(" ", 2)[1] == "stable"]
    assert bool(records) == stable


def test_unreadable_config_file_is_a_config_error(capsys, tmp_path):
    binary = tmp_path / "binary.conf"
    binary.write_bytes(b"\xfe\xff n = 4\n")
    for path in (tmp_path / "absent.conf", binary):
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1 and err.startswith("config error: config"), path


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "securecast.cli", "analyze", "--n", "31",
         "--t", "10", "--kappa", "3", "--delta", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "conflict_bound" in proc.stdout


def test_trace_check_accepts_a_stability_off_run_with_a_faulty_sender(
        capsys, tmp_path):
    # nothing re-forwards a collusive sender's partial deliver here, so
    # only ids of correct senders owe Reliability
    trace = tmp_path / "off.trace"
    code, _, _ = run_cli(capsys, "simulate", "--protocol", "3t", "--n", "7",
                         "--t", "2", "--adversary", "collusive",
                         "--messages", "3", "--seed", "0", "--no-stability",
                         "--trace-out", str(trace))
    assert code == 0
    assert trace.read_text().split("\n", 1)[0].endswith(";stability=off")
    code, out, err = run_cli(capsys, "trace-check", str(trace))
    assert (code, out, err) == (0, "trace clean\n", "")
