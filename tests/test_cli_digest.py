"""The CLI digest matrix in tools/cli_digest.py runs, and every run exits as it expects."""

import importlib.util
from pathlib import Path

from kdiff_lab import EPSILON_TARGET, U_LOSS, V_TARGET, X_TARGET

from helpers import run_python

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_digest", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_matrix_covers_every_command_on_both_data_kinds():
    covered = {(command, "spectrum" in cfg["data"]) for command, cfg, _ in _tool().RUNS}
    assert covered == {(c, s) for c in ("theory", "dynamics", "train", "sample") for s in (False, True)}


def test_matrix_covers_both_train_loss_modes():
    runs = [cfg for command, cfg, _ in _tool().RUNS if command in ("train", "sample")]
    modes = {cfg.get("train", {}).get("loss_mode", "u") for cfg in runs}
    assert modes == {"u", "v_alg1"}


def test_matrix_covers_frozen_and_trainable_k_with_and_without_bins():
    trained = [
        (command, cfg.get("train", {}))
        for command, cfg, _ in _tool().RUNS
        if command == "train" or (command == "sample" and cfg.get("sample", {}).get("net") == "train")
    ]
    covered = {(train.get("k_trainable", True), "k_bins" in train) for _, train in trained}
    assert covered == {(trainable, binned) for trainable in (True, False) for binned in (True, False)}
    # both commands run a frozen k
    assert {command for command, train in trained if train.get("k_trainable") is False} == {"train", "sample"}


def test_every_run_prints_its_expected_exit_code(tmp_path):
    proc = run_python([str(_TOOL)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    tool = _tool()
    runs, oracle = tool.RUNS, tool.ORACLE
    lines = [line.split() for line in proc.stdout.splitlines()]
    cli_lines, case_lines = lines[: len(runs)], lines[len(runs) :]
    assert [(int(i), command) for i, command, _, _ in cli_lines] == [(i, command) for i, (command, _, _) in enumerate(runs)]
    assert [int(code) for _, _, code, _ in cli_lines] == [expected for _, _, expected in runs]
    # then one oracle, one weight and one moments line per case, numbered on from the runs
    cases = [(kind, name) for kind in ("oracle", "weight", "moments") for name, _ in oracle]
    assert [(int(i), kind, name) for i, kind, name, _ in case_lines] == [
        (i, kind, name) for i, (kind, name) in enumerate(cases, start=len(runs))
    ]
    assert all(len(sha) == 64 for *_, sha in lines)
    assert not any(tmp_path.iterdir())  # every run's directory is removed


def test_oracle_cases_cover_every_loss():
    losses = {arguments()[5] for _, arguments in _tool().ORACLE}
    assert losses == {U_LOSS, X_TARGET, EPSILON_TARGET, V_TARGET}
