import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certcap import cli
from certcap.channel import noiseless, product_channel
from certcap.cli import EXIT_ERROR, EXIT_OK, EXIT_UNDETERMINED, main
from certcap.confgraph import max_independent_set


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_unsolvable_exits_zero(capsys, data_dir):
    code, out, _ = run_cli(capsys, "analyze",
                           "--plant", str(data_dir / "plant_diag3.json"),
                           "--channel", str(data_dir / "pentagon.json"),
                           "--regime", "se-fb", "--budget", "10000")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["outcome"] == "Unsolvable"
    assert doc["certificate"]["kind"] == "psi"


def test_analyze_zero_budget_exits_three(capsys, data_dir):
    code, out, _ = run_cli(capsys, "analyze",
                           "--plant", str(data_dir / "plant_diag3.json"),
                           "--channel", str(data_dir / "pentagon.json"),
                           "--regime", "se-fb", "--budget", "0")
    assert code == EXIT_UNDETERMINED
    assert json.loads(out)["outcome"] == "Undetermined"


def test_bad_channel_exits_one(capsys, data_dir):
    code, out, err = run_cli(capsys, "fb-capacity",
                             "--channel", str(data_dir / "bad_channel.json"))
    assert code == EXIT_ERROR
    assert not out
    assert "error" in err


def test_missing_file_exits_one(capsys, data_dir):
    code, _, err = run_cli(capsys, "eta", "--plant",
                           str(data_dir / "no_such_plant.json"))
    assert code == EXIT_ERROR
    assert "not found" in err


def test_unknown_flag_exits_one(capsys, data_dir):
    code, _, _ = run_cli(capsys, "fb-capacity",
                         "--channel", str(data_dir / "pentagon.json"),
                         "--frobnicate")
    assert code == EXIT_ERROR


def test_fb_capacity_pentagon(capsys, data_dir):
    code, out, _ = run_cli(capsys, "fb-capacity",
                           "--channel", str(data_dir / "pentagon.json"))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["exact_inverse_psi"] == "5/2"
    assert doc["enclosure"]["level"] == 20


def test_eta_command(capsys, data_dir):
    code, out, _ = run_cli(capsys, "eta",
                           "--plant", str(data_dir / "plant_diag2.json"))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["eta"]["lo"] == "1" and doc["eta"]["hi"] == "1"


def test_capacity_report_shape(capsys, data_dir):
    code, out, _ = run_cli(capsys, "capacity",
                           "--channel", str(data_dir / "pentagon.json"),
                           "--tolerance", "1/10000")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"c0_lb", "c0fb", "shannon"}
    assert doc["c0_lb"]["rungs"][1]["alpha"] == 5
    assert doc["shannon"]["iterations"] >= 1


def test_zero_error_ladder(capsys, data_dir):
    code, out, _ = run_cli(capsys, "zero-error",
                           "--channel", str(data_dir / "pentagon.json"),
                           "--max-block", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [r["n"] for r in doc["rungs"]] == [1, 2]


def test_simulate_writes_trace(capsys, data_dir, tmp_path):
    trace = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "simulate",
                           "--plant", str(data_dir / "plant_3_2.json"),
                           "--channel", str(data_dir / "noiseless2.json"),
                           "--regime", "se-nofb", "--horizon", "200",
                           "--seed", "4", "--trace-out", str(trace))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["bounded"] is True
    header = trace.read_text().splitlines()[0]
    assert header == "t,x,x_hat,error,u"


def test_simulate_auto_code(capsys, data_dir):
    code, out, _ = run_cli(capsys, "simulate",
                           "--plant", str(data_dir / "plant_3_2.json"),
                           "--channel", str(data_dir / "pentagon.json"),
                           "--regime", "se-nofb", "--horizon", "100",
                           "--seed", "1", "--code", "auto", "--block-length", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["message_count"] == 5 and doc["block_length"] == 2
    assert doc["zero_error_transcript"] is True


def test_simulate_auto_code_search_stops_at_the_cover_bound(capsys, data_dir, monkeypatch):
    # sparse8.json: inputs 0-3 isolated, edges 4-5, 4-6 and 5-7 (alpha 6,
    # fractional clique cover weight 6).  Unbounded, the search on the square
    # expands about 15 million nodes; floor(6^2) = 36 ends it exact at once.
    results = []

    def spy(*args, **kwargs):
        results.append(max_independent_set(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "max_independent_set", spy)
    code, out, _ = run_cli(capsys, "simulate",
                           "--plant", str(data_dir / "plant_3_2.json"),
                           "--channel", str(data_dir / "sparse8.json"),
                           "--regime", "se-nofb", "--horizon", "20",
                           "--seed", "1", "--code", "auto", "--block-length", "2")
    assert code == EXIT_OK
    assert json.loads(out)["message_count"] == 36
    [result] = results
    assert (result.alpha, result.exact) == (36, True)
    assert result.nodes <= 36


def test_simulate_auto_code_block_one_on_tuple_labels(capsys, data_dir, monkeypatch):
    # channel JSON labels are scalars, so the tuple-labelled product channel
    # is handed to the command directly; block length 1 builds its first
    # strong power, whose vertices are one-letter words
    monkeypatch.setattr(cli, "load_channel", lambda doc: product_channel(noiseless(2), 2))
    code, out, err = run_cli(capsys, "simulate",
                             "--plant", str(data_dir / "plant_3_2.json"),
                             "--channel", str(data_dir / "noiseless2.json"),
                             "--regime", "se-nofb", "--horizon", "50",
                             "--seed", "1", "--code", "auto")
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert doc["message_count"] == 4 and doc["block_length"] == 1
    assert doc["zero_error_transcript"] is True


@pytest.mark.parametrize("command, inputs, message", [
    (["analyze", "--regime", "se-nofb", "--budget", "2000"], ["a", "a"],
     "duplicate input labels"),
    (["zero-error"], [[0, 0], [0, 1]], "input labels must be hashable"),
], ids=["duplicate-labels", "list-labels"])
def test_bad_channel_labels_exit_one(capsys, data_dir, tmp_path, command, inputs, message):
    channel = tmp_path / "channel.json"
    channel.write_text(json.dumps({"inputs": inputs, "outputs": [0, 1], "mode": "exact",
                                   "rows": [["1", "0"], ["0", "1"]]}))
    argv = command + ["--channel", str(channel)]
    if command[0] == "analyze":
        argv += ["--plant", str(data_dir / "plant_3_2.json")]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: {message}\n"


NL2_DOC = {"inputs": [0, 1], "outputs": [0, 1], "mode": "exact",
           "rows": [["1", "0"], ["0", "1"]]}
STREAM_DOC = {"inputs": [0], "outputs": [0], "mode": "stream",
              "schedules": [[[{"level": 0, "lo": "1", "hi": "1"}]]]}


@pytest.mark.parametrize("command", ["fb-capacity", "analyze"])
@pytest.mark.parametrize("channel", [
    {**NL2_DOC, "inputs": 5}, {**NL2_DOC, "outputs": 5}, {**NL2_DOC, "rows": 5},
    {**NL2_DOC, "rows": [5, ["0", "1"]]}, {**STREAM_DOC, "schedules": 5},
    {**STREAM_DOC, "schedules": [5]}, {**STREAM_DOC, "schedules": [[5]]},
    {**STREAM_DOC, "schedules": [[[5]]]},
    {**STREAM_DOC, "schedules": [[[{"level": [0], "lo": "1", "hi": "1"}]]]},
], ids=["inputs", "outputs", "rows", "row", "schedules", "schedule-row", "cell", "step",
        "level"])
def test_non_list_channel_field_exits_one(capsys, data_dir, tmp_path, command, channel):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(channel))
    argv = [command, "--channel", str(path)]
    if command == "analyze":
        argv += ["--plant", str(data_dir / "plant_3_2.json"), "--regime", "se-fb"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("plant", [
    {"A": 5}, {"A": [5]}, {"A": [["3/2"]], "B": 5}, {"A": [["3/2"]], "C": [5]},
], ids=["A", "A-row", "B", "C-row"])
def test_non_list_plant_field_exits_one(capsys, data_dir, tmp_path, plant):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(plant))
    code, out, err = run_cli(capsys, "analyze", "--plant", str(path), "--regime", "se-fb",
                             "--channel", str(data_dir / "pentagon.json"))
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["fb-capacity", "--channel"], ["eta", "--plant"]])
def test_directory_path_exits_one(capsys, data_dir, argv):
    code, out, err = run_cli(capsys, *argv, str(data_dir))
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: cannot read {data_dir}: Is a directory\n"


def test_fixed_eta_analyze(capsys, data_dir):
    code, out, _ = run_cli(capsys, "analyze",
                           "--plant", str(data_dir / "plant_diag2.json"),
                           "--channel", str(data_dir / "noiseless2.json"),
                           "--regime", "se-nofb",
                           "--fixed-eta", "1/2", "--direction", "capacity-above",
                           "--budget", "100")
    assert code == EXIT_OK
    assert json.loads(out)["outcome"] == "Solvable"


def test_fixed_eta_non_dyadic(capsys, data_dir):
    code, out, _ = run_cli(capsys, "analyze",
                           "--plant", str(data_dir / "plant_3_2.json"),
                           "--channel", str(data_dir / "pentagon.json"),
                           "--regime", "se-fb",
                           "--fixed-eta", "1/3", "--direction", "capacity-above")
    assert code == EXIT_OK
    assert json.loads(out)["outcome"] == "Solvable"


def test_stream_channel_analyze(capsys, data_dir):
    code, out, _ = run_cli(capsys, "analyze",
                           "--plant", str(data_dir / "plant_diag3.json"),
                           "--channel", str(data_dir / "stream_hover.json"),
                           "--regime", "se-fb", "--budget", "500")
    assert code == EXIT_OK
    assert json.loads(out)["outcome"] == "Unsolvable"


def test_env_var_sets_default_budget(capsys, data_dir, monkeypatch):
    monkeypatch.setenv("CERTCAP_BUDGET", "0")
    code, out, _ = run_cli(capsys, "analyze",
                           "--plant", str(data_dir / "plant_diag3.json"),
                           "--channel", str(data_dir / "pentagon.json"),
                           "--regime", "se-fb")
    assert code == EXIT_UNDETERMINED
    assert json.loads(out)["budget"]["limit"] == 0
    # an explicit flag overrides the environment
    code, out, _ = run_cli(capsys, "analyze",
                           "--plant", str(data_dir / "plant_diag3.json"),
                           "--channel", str(data_dir / "pentagon.json"),
                           "--regime", "se-fb", "--budget", "10000")
    assert code == EXIT_OK
    assert json.loads(out)["outcome"] == "Unsolvable"



def test_simulate_on_a_stream_channel_exits_one(capsys, data_dir):
    code, out, err = run_cli(capsys, "simulate",
                             "--plant", str(data_dir / "plant_3_2.json"),
                             "--channel", str(data_dir / "stream_hover.json"),
                             "--regime", "se-nofb", "--horizon", "5")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: the simulator needs an exact channel, not a stream\n"


def test_simulate_negative_horizon_exits_one(capsys, data_dir):
    code, out, err = run_cli(capsys, "simulate",
                             "--plant", str(data_dir / "plant_3_2.json"),
                             "--channel", str(data_dir / "noiseless2.json"),
                             "--regime", "se-nofb", "--horizon", "-1")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: horizon must be >= 0, got -1\n"


def test_simulate_negative_radius_exits_one(capsys, data_dir):
    code, out, err = run_cli(capsys, "simulate",
                             "--plant", str(data_dir / "plant_3_2.json"),
                             "--channel", str(data_dir / "noiseless2.json"),
                             "--regime", "se-nofb", "--horizon", "20", "--radius", "-1")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: initial radius must be >= 0, got -1\n"


def test_simulate_zero_radius_runs(capsys, data_dir):
    code, out, _ = run_cli(capsys, "simulate",
                           "--plant", str(data_dir / "plant_3_2.json"),
                           "--channel", str(data_dir / "noiseless2.json"),
                           "--regime", "se-nofb", "--horizon", "20", "--radius", "0")
    assert code == EXIT_OK
    assert json.loads(out)["bounded"] is True


def test_simulate_identity_code_rejects_longer_blocks(capsys, data_dir):
    code, out, err = run_cli(capsys, "simulate",
                             "--plant", str(data_dir / "plant_3_2.json"),
                             "--channel", str(data_dir / "noiseless2.json"),
                             "--regime", "se-nofb", "--horizon", "20",
                             "--block-length", "3")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == ("error: --code identity sends one symbol per message; "
                   "--block-length must be 1, got 3\n")


def test_analyze_negative_budget_exits_one(capsys, data_dir):
    code, out, err = run_cli(capsys, "analyze",
                             "--plant", str(data_dir / "plant_diag3.json"),
                             "--channel", str(data_dir / "pentagon.json"),
                             "--regime", "se-fb", "--budget", "-5")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: --budget must be >= 0, got -5\n"


def test_negative_env_budget_exits_one(capsys, data_dir, monkeypatch):
    monkeypatch.setenv("CERTCAP_BUDGET", "-5")
    code, out, err = run_cli(capsys, "analyze",
                             "--plant", str(data_dir / "plant_diag3.json"),
                             "--channel", str(data_dir / "pentagon.json"),
                             "--regime", "se-fb")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: CERTCAP_BUDGET must be >= 0, got -5\n"


def test_zero_error_on_empty_alphabets_exits_one(capsys, tmp_path):
    channel = tmp_path / "empty.json"
    channel.write_text(json.dumps({"inputs": [], "outputs": [], "rows": []}))
    code, out, err = run_cli(capsys, "zero-error", "--channel", str(channel))
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: empty input alphabet\n"

def test_text_format(capsys, data_dir):
    code, out, _ = run_cli(capsys, "--format", "text", "eta",
                           "--plant", str(data_dir / "plant_diag2.json"))
    assert code == EXIT_OK
    assert "eta.lo = 1" in out


GOLDEN_COMMANDS = [
    ("analyze", "--plant", "plant_diag3.json", "--channel", "pentagon.json",
     "--regime", "se-fb", "--budget", "10000"),
    ("analyze", "--plant", "plant_diag2.json", "--channel", "pentagon.json",
     "--regime", "se-nofb", "--budget", "10000"),
    ("analyze", "--plant", "plant_weak2.json", "--channel", "pentagon.json",
     "--regime", "weak", "--budget", "10000"),
    ("analyze", "--plant", "plant_diag3.json", "--channel", "stream_hover.json",
     "--regime", "se-fb", "--budget", "300"),
    ("capacity", "--channel", "pentagon.json", "--tolerance", "1/10000"),
    ("zero-error", "--channel", "pentagon.json"),
    ("fb-capacity", "--channel", "bsc_1_4.json"),
    ("fb-capacity", "--channel", "pentagon.json"),
    ("eta", "--plant", "plant_diag2.json"),
    ("simulate", "--plant", "plant_3_2.json", "--channel", "noiseless2.json",
     "--regime", "se-nofb", "--horizon", "300", "--seed", "2"),
]


def _resolve(data_dir, argv):
    return [str(data_dir / a) if a.endswith(".json") else a for a in argv]


@pytest.mark.parametrize("argv", GOLDEN_COMMANDS,
                         ids=[" ".join(a[:2]) + f"#{i}" for i, a in enumerate(GOLDEN_COMMANDS)])
def test_byte_determinism_across_runs(capsys, data_dir, argv):
    argv = _resolve(data_dir, list(argv))
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2
    assert out1 == out2


@pytest.mark.parametrize("argv", GOLDEN_COMMANDS[:6],
                         ids=[f"rt{i}" for i in range(6)])
def test_json_round_trip_is_byte_stable(capsys, data_dir, argv):
    argv = _resolve(data_dir, list(argv))
    _, out, _ = run_cli(capsys, *argv)
    doc = json.loads(out)
    again = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert again == out


# sha256 of stdout and the exit code of each GOLDEN_COMMANDS entry, pinned
# so that a refactor which changes the bytes consistently still fails.  The
# weak (#2) and capacity (#4) outputs carry input distributions chosen by
# the floating-point heuristic in capacity.next_distribution, so those two
# digests also depend on the platform's float log2.
GOLDEN_DIGESTS = [
    ("1de8b18dda5fb9078f804bb385668e4844b40a8e9ac07586a9bad6c1cef596f7", 0),
    ("c1012fb60bd575310643b74319c2bbcf1994ea635eee3100fac3cd9e707cee93", 0),
    ("5dd7d50f427933ec192261074057c2f690341d8e11ba2f15d302e5320bf278e2", 0),
    ("18e570de70601ebce542bf87072f52751c030d66dc1ca9ca1117a835b003e632", 0),
    ("2c6573dbf796ae20f86365edda742ec89ea6493ae80717faf7df3711b0e43af4", 0),
    ("2eae14b6477558e227a60a2a20baa8d80cd655f57ac29171ec30067164ab6c73", 0),
    ("bd73c5d374f6cd1da466a8789376d9ed3e6bf2f42feb2584973ed9bb7e620fa7", 0),
    ("d9384b76483d43e84da2e99d4ccbcf56da27649bb8ef6f8ccb2c3cc36d7f2bb5", 0),
    ("0eb5cca7d1d9fb4c570299dfd724c2b5f7e55a68c4ec53bec37e771b0ffd7a7d", 0),
    ("76fd435e2fd50d4a6d12c3a9ddd7ca9e5ae6ddca2acc8657d6d97fbdf37527dd", 0),
]


@pytest.mark.parametrize("argv, pinned", list(zip(GOLDEN_COMMANDS, GOLDEN_DIGESTS)),
                         ids=[" ".join(a[:2]) + f"#{i}" for i, a in enumerate(GOLDEN_COMMANDS)])
def test_golden_stdout_is_pinned(capsys, data_dir, argv, pinned):
    code, out, _ = run_cli(capsys, *_resolve(data_dir, list(argv)))
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == pinned


# sha256 of stdout and the exit code of commands whose bytes follow the
# simplex's pivot path (typewriter(4)'s minimax optimum is not unique, so the
# reported distribution and output weights are the pivots' choice), the
# denominators of char_poly (a dense 4x4 plant with non-integer entries) or
# the independence search's witness under its cover bound; pinned from the
# Fraction-per-entry tableau that the integer tableau replaced.
PIVOT_PATH_DIGESTS = [
    (("fb-capacity", "--channel", "typewriter4.json"),
     ("658b89e65de904419efe65633b9ac729d3f473f66b845977a0b0b6663522ce34", 0)),
    (("analyze", "--plant", "plant_3_2.json", "--channel", "typewriter4.json",
      "--regime", "se-fb", "--budget", "10000"),
     ("030da9a748c514ff6ae51bb8f9e29b8f75591a976b31324aba99ec9ff8a5709d", 0)),
    (("analyze", "--plant", "plant_diag3.json", "--channel", "typewriter4.json",
      "--regime", "se-fb", "--budget", "10000"),
     ("ae515f2896bb006f960d1ee0f471c5a70db8a03dc9e30ad81e45d0884c303c7b", 0)),
    (("eta", "--plant", "plant_dense4.json"),
     ("ac40ce2fdc2370fdf7187cc2b64399dd8f102ef7e59e8ed5fd478e02ec308fcf", 0)),
    (("simulate", "--plant", "plant_3_2.json", "--channel", "pentagon.json",
      "--regime", "se-nofb", "--code", "auto", "--block-length", "2",
      "--horizon", "50", "--seed", "1"),
     ("9bae0f87c29addf9790be6d02916e2c6809a1784272229b9290f7906fa765cb0", 0)),
    (("simulate", "--plant", "plant_3_2.json", "--channel", "sparse8.json",
      "--regime", "se-nofb", "--code", "auto", "--block-length", "2",
      "--horizon", "20", "--seed", "1"),
     ("e74481b175631605025c1e3f0da9a602166da66171a77206a9909efae8356e53", 0)),
]


@pytest.mark.parametrize("argv, pinned", PIVOT_PATH_DIGESTS,
                         ids=[" ".join(a[:2]) + f"#{i}" for i, (a, _) in enumerate(PIVOT_PATH_DIGESTS)])
def test_pivot_path_stdout_is_pinned(capsys, data_dir, argv, pinned):
    code, out, _ = run_cli(capsys, *_resolve(data_dir, list(argv)))
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == pinned


# sha256 of stdout and the exit code of commands whose zero-error graph is a
# stream's may-reach graph at its last declared level (unresolved entries
# count as edges), pinned when the ladder first accepted such graphs
MAY_REACH_DIGESTS = [
    (("zero-error", "--channel", "stream_hover.json"),
     ("d7a3e6c37a77faacf7cd5bf10031da4af3a5b320a4970efc18141b0991a8b12f", 0)),
    (("analyze", "--plant", "plant_3_2.json", "--channel", "stream_pentagon_resolve3.json",
      "--regime", "se-nofb", "--budget", "1000"),
     ("a50b7ef0b785bed884ca317b4917184d7882f9c2675d3b4f3cbbf0197ead761c", 0)),
]


@pytest.mark.parametrize("argv, pinned", MAY_REACH_DIGESTS,
                         ids=[" ".join(a[:2]) + f"#{i}" for i, (a, _) in enumerate(MAY_REACH_DIGESTS)])
def test_may_reach_stdout_is_pinned(capsys, data_dir, argv, pinned):
    code, out, _ = run_cli(capsys, *_resolve(data_dir, list(argv)))
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == pinned


# sha256 of stdout and the exit code of commands whose bytes carry the
# certified Shannon bounds: capacity on every exact channel in tests/data and
# one weak analysis whose lower bound is certified at level 60, pinned from
# the Fraction-per-term bounds that the integer bounds replaced.  asym3x4's
# third input's optimal mass tends to 0, so Blahut-Arimoto takes 300 iterates
# at tolerance 1/10000 and 2974 at the default.
SHANNON_DIGESTS = [
    (("capacity", "--channel", "asym3x4.json", "--tolerance", "1/10000"),
     ("bcd6dfa20e5d21c0130c3029a0ae58e1a00c0f64f3008efdbb3c8133ba75b114", 0)),
    (("capacity", "--channel", "asym3x4.json"),
     ("f7a71d0b993e8f71f0089ca5984252a318c93d3f7f719bd562dd8d4292bc21a8", 0)),
    (("capacity", "--channel", "bsc_1_10.json"),
     ("10dbaaca3c0a1fb7db681e625b3af44215ed444ed2ef1de107719c17cb4dfb02", 0)),
    (("capacity", "--channel", "bsc_1_4.json"),
     ("f38d182e0931220f2edd4d8c9438beefa81fe8067cc3b1f2232ab6f4975cdb8d", 0)),
    (("capacity", "--channel", "noiseless2.json"),
     ("3abf8b937feb06c61ac3e17ef9fb6f66bf7105f7044f6633d696361e0de267cf", 0)),
    (("capacity", "--channel", "pentagon.json"),
     ("bc265b37d4d320f7d0d2b157758f56c77ebb9835559e2040f9790ad7b0f10d15", 0)),
    (("capacity", "--channel", "sparse8.json"),
     ("a163ae99a9c49f4f39ce829e0298eca8eb305d9bb9945f9f5179a64fdbd4b39f", 0)),
    (("capacity", "--channel", "typewriter4.json"),
     ("5e590b3a8b47ce1891de34bf650ee634a9589b3f36b25683371f298c8b07f9cf", 0)),
    (("analyze", "--plant", "plant_weak_1093_1000.json", "--channel", "asym3x4.json",
      "--regime", "weak", "--budget", "10000"),
     ("fb9f6ed44260f894b00d9b9851ed6f54b9106be4175ca613b6003b27be31990f", 0)),
]


@pytest.mark.parametrize("argv, pinned", SHANNON_DIGESTS,
                         ids=[" ".join(a[:3]) + f"#{i}" for i, (a, _) in enumerate(SHANNON_DIGESTS)])
def test_shannon_bounds_stdout_is_pinned(capsys, data_dir, argv, pinned):
    code, out, _ = run_cli(capsys, *_resolve(data_dir, list(argv)))
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == pinned


def test_zero_error_ladder_on_a_hovering_stream(capsys, data_dir):
    # the hovering entry may join the two inputs: rung 1 is one word, exactly
    code, out, _ = run_cli(capsys, "zero-error", "--channel",
                           str(data_dir / "stream_hover.json"))
    assert code == EXIT_OK
    first = json.loads(out)["rungs"][0]
    assert (first["n"], first["alpha"], first["exact"]) == (1, 1, True)


@pytest.mark.parametrize("command,max_block", [("zero-error", "0"), ("zero-error", "-3"),
                                               ("capacity", "0"), ("capacity", "-3")])
def test_max_block_below_one_exits_one(capsys, data_dir, command, max_block):
    code, out, err = run_cli(capsys, command, "--channel", str(data_dir / "pentagon.json"),
                             "--max-block", max_block)
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: --max-block must be >= 1, got {max_block}\n"


def test_ladder_past_the_vertex_cap_exits_one(capsys, data_dir):
    code, out, err = run_cli(capsys, "zero-error", "--channel", str(data_dir / "pentagon.json"),
                             "--max-block", "6")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: 15625 vertices exceed the cap of 4096\n"


def test_simulate_auto_code_past_the_vertex_cap_exits_one(capsys, data_dir):
    code, out, err = run_cli(capsys, "simulate",
                             "--plant", str(data_dir / "plant_3_2.json"),
                             "--channel", str(data_dir / "pentagon.json"),
                             "--regime", "se-nofb", "--horizon", "5",
                             "--code", "auto", "--block-length", "6")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: 15625 vertices exceed the cap of 4096\n"


@pytest.mark.parametrize("target", ["directory", "missing-directory"])
def test_unwritable_trace_out_exits_one_before_the_run(capsys, data_dir, tmp_path,
                                                       monkeypatch, target):
    def run_never_starts(cfg):
        raise AssertionError("the simulation ran")

    monkeypatch.setattr(cli, "run_estimation", run_never_starts)
    path, reason = ((tmp_path, "Is a directory") if target == "directory" else
                    (tmp_path / "no_such_dir" / "x.csv", "No such file or directory"))
    code, out, err = run_cli(capsys, "simulate",
                             "--plant", str(data_dir / "plant_3_2.json"),
                             "--channel", str(data_dir / "noiseless2.json"),
                             "--regime", "se-nofb", "--horizon", "20",
                             "--trace-out", str(path))
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: cannot write {path}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_simulate_leaves_no_trace_file(capsys, data_dir, tmp_path):
    fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
    existing.write_text("kept\n")
    for path in (fresh, existing):
        code, out, err = run_cli(capsys, "simulate",
                                 "--plant", str(data_dir / "plant_dense4.json"),
                                 "--channel", str(data_dir / "noiseless2.json"),
                                 "--regime", "se-nofb", "--horizon", "20",
                                 "--trace-out", str(path))
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: simulator supports scalar/diagonal A only\n"
    assert sorted(tmp_path.iterdir()) == [existing]
    assert existing.read_text() == "kept\n"


def test_direction_without_fixed_eta_exits_one(capsys, data_dir):
    code, out, err = run_cli(capsys, "analyze",
                             "--plant", str(data_dir / "plant_3_2.json"),
                             "--channel", str(data_dir / "pentagon.json"),
                             "--regime", "se-fb", "--direction", "capacity-below")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: --direction needs --fixed-eta\n"


@pytest.mark.parametrize("eta, shown", [("-1", "-1"), ("-1/1000", "-1/1000")])
def test_negative_fixed_eta_exits_one(capsys, data_dir, eta, shown):
    for direction in ("capacity-above", "capacity-below"):
        code, out, err = run_cli(capsys, "analyze",
                                 "--plant", str(data_dir / "plant_3_2.json"),
                                 "--channel", str(data_dir / "pentagon.json"),
                                 "--regime", "weak", f"--fixed-eta={eta}",
                                 "--direction", direction, "--budget", "20")
        assert (code, out) == (EXIT_ERROR, "")
        assert err == f"error: the exponent must be >= 0, got {shown}\n"


def test_zero_fixed_eta_still_runs(capsys, data_dir):
    code, out, _ = run_cli(capsys, "analyze", "--plant", str(data_dir / "plant_3_2.json"),
                           "--channel", str(data_dir / "pentagon.json"),
                           "--regime", "weak", "--fixed-eta=0", "--budget", "20")
    assert code == EXIT_OK and json.loads(out)["outcome"] == "Solvable"


def test_trace_out_streams_the_csv(capsys, data_dir, tmp_path, monkeypatch):
    from certcap.simulate import Trajectory

    def whole_string(self):
        raise AssertionError("the CSV was built as one string")

    monkeypatch.setattr(Trajectory, "to_csv", whole_string)
    path = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, *_resolve(data_dir, list(GOLDEN_COMMANDS[9])),
                           "--trace-out", str(path))
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == GOLDEN_DIGESTS[9]
    # the 300-step CSV's digest when it was written from to_csv()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "007318c797dbd6cbdc4b48265e8aec8fb1ca576da1c22a433d57fd5182f7f640")


ANALYZE_DIAG3 = ("analyze", "--plant", "plant_diag3.json", "--channel", "pentagon.json",
                 "--regime", "se-fb")
ETA_DIAG2 = ("eta", "--plant", "plant_diag2.json")

# back-to-back calls that share one parser
REENTRANT_SEQUENCES = {
    "subcommands": [ETA_DIAG2, ("fb-capacity", "--channel", "bsc_1_4.json"),
                    ("zero-error", "--channel", "pentagon.json"), ANALYZE_DIAG3],
    "budget": [ANALYZE_DIAG3 + ("--budget", "5"), ANALYZE_DIAG3],
    "format": [("--format", "text") + ETA_DIAG2, ETA_DIAG2],
    "usage-error": [("eta", "--width", "1/2"), ETA_DIAG2],
    "help": [("--help",), ("--help",)],
}


@pytest.mark.parametrize("calls", REENTRANT_SEQUENCES.values(), ids=REENTRANT_SEQUENCES)
def test_shared_parser_is_reentrant(capsys, data_dir, monkeypatch, calls):
    monkeypatch.delenv("CERTCAP_BUDGET", raising=False)
    calls = [_resolve(data_dir, list(argv)) for argv in calls]
    cli._build_parser.cache_clear()
    shared = [run_cli(capsys, *argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh


def test_budget_env_change_between_calls_is_honoured(capsys, data_dir, monkeypatch):
    argv = _resolve(data_dir, list(ANALYZE_DIAG3))
    for budget in ("0", "7", "0"):
        monkeypatch.setenv("CERTCAP_BUDGET", budget)
        _, out, _ = run_cli(capsys, *argv)
        assert json.loads(out)["budget"]["limit"] == int(budget)


def test_twenty_calls_build_the_parser_once(capsys, data_dir):
    cli._build_parser.cache_clear()
    for _ in range(20):
        assert run_cli(capsys, *_resolve(data_dir, list(ETA_DIAG2)))[0] == EXIT_OK
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 19)


# Argv fuzz: every subcommand over the tests/data documents, each flag's
# value drawn from its valid pool except for at most one drawn from its
# hostile pool (missing files, directories, documents of the wrong kind,
# zero, negative and non-integer ints, malformed rationals, unknown
# choices).  Every simulate call names a --trace-out target, which may be a
# directory or lie in a missing one.  Sizes stay small (horizon and budget
# <= 20, block lengths <= 2) so that 150 calls take seconds.
DATA_DIR = Path(__file__).resolve().parent / "data"
PLANTS = sorted(str(p) for p in DATA_DIR.glob("plant_*.json"))
CHANNELS = sorted(str(p) for p in DATA_DIR.glob("*.json")
                  if not p.name.startswith(("plant_", "bad_")))
MISSING = [str(DATA_DIR / "no_such.json"), str(DATA_DIR)]
# the simulator takes scalar or diagonal plants over exact channels
SIM_PLANTS = [p for p in PLANTS if "dense" not in p]
SIM_CHANNELS = [c for c in CHANNELS if "stream" not in c]
RATIONALS = (["1/2", "1/10", "1/100", "5/4", "3"],
             ["0", "-1", "-1/2", "1/0", "1e-3", "abc", ""])
FUZZ_VALUES = {
    "plant": (PLANTS, MISSING + [CHANNELS[0]]),
    "channel": (CHANNELS, MISSING + [PLANTS[0], str(DATA_DIR / "bad_channel.json")]),
    "sim-plant": (SIM_PLANTS, MISSING + sorted(set(PLANTS) - set(SIM_PLANTS)) + CHANNELS[:1]),
    "sim-channel": (SIM_CHANNELS,
                    MISSING + sorted(set(CHANNELS) - set(SIM_CHANNELS)) + PLANTS[:1]),
    "int": ([str(k) for k in range(21)], ["-1", "-7", "abc", "1.5", ""]),
    "block": (["1", "2"], ["0", "-1", "abc", "1.5"]),
    "rational": RATIONALS,
    "regime": (["se-nofb", "se-fb", "stab-fb", "weak"], ["bogus"]),
    "direction": (["capacity-above", "capacity-below"], ["up"]),
    "code": (["identity", "auto"], ["none"]),
    "trace": (["fresh", "existing", "directory", "missing-directory"], [""]),
}
FUZZ_COMMANDS = {  # flag, value pool, required
    "analyze": [("--plant", "plant", True), ("--channel", "channel", True),
                ("--regime", "regime", True), ("--budget", "int", True),
                ("--fixed-eta", "rational", False), ("--direction", "direction", False)],
    "capacity": [("--channel", "channel", True), ("--tolerance", "rational", True),
                 ("--max-block", "block", False)],
    "zero-error": [("--channel", "channel", True), ("--max-block", "block", False)],
    "fb-capacity": [("--channel", "channel", True), ("--width", "rational", False)],
    "eta": [("--plant", "plant", True), ("--width", "rational", False)],
    "simulate": [("--plant", "sim-plant", True), ("--channel", "sim-channel", True),
                 ("--regime", "regime", True), ("--horizon", "int", True),
                 ("--seed", "int", False), ("--block-length", "block", False),
                 ("--code", "code", False), ("--radius", "rational", False),
                 ("--trace-out", "trace", True)],
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    flags = [(name, kind) for name, kind, required in FUZZ_COMMANDS[command]
             if required or draw(st.booleans())]
    hostile = draw(st.one_of(st.none(), st.integers(0, len(flags) - 1)))
    argv = ["--format", "text"] if draw(st.booleans()) else []
    argv.append(command)
    for i, (name, kind) in enumerate(flags):
        value = draw(st.sampled_from(FUZZ_VALUES[kind][i == hostile]))
        argv.append(f"{name}={value}")
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=fuzz_argv())
def test_argv_fuzz_never_raises(argv):
    with tempfile.TemporaryDirectory() as tmp:
        existing = os.path.join(tmp, "existing.csv")
        with open(existing, "w") as fh:
            fh.write("kept\n")
        targets = {"fresh": os.path.join(tmp, "fresh.csv"), "existing": existing,
                   "directory": tmp, "missing-directory": os.path.join(tmp, "no", "x.csv"), "": ""}
        trace = None
        for i, arg in enumerate(argv):
            if arg.startswith("--trace-out="):
                trace = arg.partition("=")[2]
                argv[i] = f"--trace-out={targets[trace]}"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == EXIT_ERROR:
            assert out.getvalue() == "" and "error:" in err.getvalue()
        else:
            assert code in (EXIT_OK, EXIT_UNDETERMINED)
            assert out.getvalue() and err.getvalue() == ""
        written = sorted(os.listdir(tmp))
        assert written == (["existing.csv", "fresh.csv"] if trace == "fresh" and code == EXIT_OK
                           else ["existing.csv"])
        with open(existing) as fh:
            assert (fh.read() == "kept\n") == (trace != "existing" or code != EXIT_OK)


@pytest.mark.parametrize("argv, unbuffered", [
    # unbuffered, the write in _emit meets the closed pipe
    (["zero-error", "--channel", "pentagon.json", "--max-block", "3"], True),
    # buffered, a short report would wait for the interpreter's exit flush
    (["eta", "--plant", "plant_diag2.json"], False),
], ids=["write", "exit-flush"])
def test_closed_stdout_exits_one_without_a_traceback(data_dir, argv, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes, as with | head
    try:
        done = subprocess.run([sys.executable, *(["-u"] if unbuffered else []),
                               "-m", "certcap.cli", *argv],
                              cwd=data_dir, stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_ERROR
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
