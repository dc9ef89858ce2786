"""The benchmark's traced replay (``perfbench/replay.py``) against the CLI.

The replay calls the library directly, so a library change that breaks it
fails here and not first in a benchmark run.  The dimdrop commands are left
out: their replay spends seconds building graph edge objects.
"""

import json
import sys
from pathlib import Path

import pytest

from ifsproj.cli import main
from ifsproj.fixtures import fixture_document, fixture_path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import replay  # noqa: E402
import workloads  # noqa: E402

COMMANDS = [
    *workloads.workload("cylinders", workloads.DEFAULT_SEED).commands,
    *(
        cmd
        for cmd in workloads.workload("finite-words", workloads.DEFAULT_SEED).commands
        if cmd.group == "ssc_approx"
    ),
]


@pytest.mark.parametrize("cmd", COMMANDS, ids=lambda cmd: cmd.label)
def test_replay_matches_the_cli(capsys, cmd):
    fixture_dir = fixture_path(cmd.fixture).parent
    meta = fixture_document(cmd.fixture).get("metadata") or {}
    assert main(cmd.argv(fixture_dir)) == cmd.exit_code == 0
    cli_report = json.loads(capsys.readouterr().out)
    code, report = replay.replay(replay.Tracer("tier-1", "smoke"), cmd, fixture_dir, meta)
    assert code == 0
    assert report and report.keys() <= cli_report.keys()
    assert report == {key: cli_report[key] for key in report}
    assert workloads.check(cmd, report, meta) == []
