#!/usr/bin/env python3
"""Run the steps of the tier-1 CI workflow locally, offline.

Reads `.github/workflows/tier1.yml` and runs each `run:` step that comes
after the Install step, in order, with `bash -e` from the repository root,
as the runner does. The steps run against the source tree, with nothing
installed: RUNNER_TEMP is a fresh temporary directory, PYTHONPATH is `src`,
and a temporary `metasrl` launcher (`python -m metasrl.cli`) comes first on
PATH. Stops at the first failing step, names it, and exits with its code.

Needs PyYAML to read the workflow.

Example:
    python3 scripts/ci_local.py
"""

import argparse
import os
import stat
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tier1.yml")
INSTALL = "Install"


def local_steps(path=WORKFLOW):
    """[(name, script)] of every `run:` step after the Install step, job
    after job, in workflow order. A step without a name is named by the
    first line of its script."""
    import yaml

    with open(path) as fh:
        doc = yaml.safe_load(fh)
    steps = [step for job in doc["jobs"].values() for step in job["steps"]]
    names = [step.get("name") for step in steps]
    if INSTALL not in names:
        raise ValueError(f"{path} has no step named {INSTALL!r}")
    return [(step.get("name") or step["run"].splitlines()[0], step["run"])
            for step in steps[names.index(INSTALL) + 1:] if "run" in step]


def run_steps(steps):
    """Run the steps in order; 0 if all pass, else the first failure's code."""
    with tempfile.TemporaryDirectory(prefix="ci_local_") as tmp:
        bin_dir, runner_temp = os.path.join(tmp, "bin"), os.path.join(tmp, "runner")
        os.mkdir(bin_dir)
        os.mkdir(runner_temp)
        launcher = os.path.join(bin_dir, "metasrl")
        with open(launcher, "w") as fh:
            fh.write(f'#!/bin/sh\nexec "{sys.executable}" -m metasrl.cli "$@"\n')
        os.chmod(launcher, os.stat(launcher).st_mode | stat.S_IXUSR)
        env = dict(os.environ, RUNNER_TEMP=runner_temp, PYTHONPATH="src",
                   PATH=bin_dir + os.pathsep + os.environ.get("PATH", ""))
        for i, (name, script) in enumerate(steps, 1):
            print(f"== step {i}/{len(steps)}: {name}", flush=True)
            code = subprocess.run(["bash", "-e", "-c", script], cwd=ROOT, env=env).returncode
            if code:
                print(f"ci_local: step {name!r} failed with exit code {code}",
                      file=sys.stderr)
                return code
    print(f"ci_local: all {len(steps)} steps passed")
    return 0


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    return run_steps(local_steps())


if __name__ == "__main__":
    sys.exit(main())
