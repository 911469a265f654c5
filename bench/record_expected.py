"""Record the exact answers the benchmark checks into bench/expected.json.

Run from the repository root when the program's answers change on purpose:

    python3 bench/record_expected.py

It runs each `sim-*` network once and every analytic pool entry once through
the CLI, and stores the checked fields of each result (see answers.py).
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import answers
import inputs
import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from cacheshare import cli

    run.OUT.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        commands = []
        for workload in inputs.SIM_NETWORKS:
            sim_dir = directory / workload
            sim_dir.mkdir()
            commands.append((sim_dir, inputs.write_inputs(workload, 0, sim_dir)[0].commands[0]))
        for i in range(inputs.POOL_SIZE):
            commands += [(directory, c) for c in inputs.analytic_round(i, i, i, i, directory)]
        recorded = {}
        for where, command in commands:
            _, code, payload, error = run.run_command(cli.main, command.argv(where))
            if code != 0:
                print(f"{command.key}: exit {code}: {error}", file=sys.stderr)
                return 1
            recorded[command.key] = answers.answer(command.kind, payload["result"])
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    data = {"recorded_at": run.stamp(0)["commit"], "answers": recorded}
    answers.EXPECTED_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} answers to {answers.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
