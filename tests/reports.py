"""The shipped report schemas, held against every report the CLI tests see written.

`convert` and `agreement` do not validate what they write: their schemas
(`schemas/run_report.json`, `schemas/agreement_report.json`) are the
contract, and these tests and the benchmark's checks hold the reports to it.
"""

import json
from importlib import resources
from pathlib import Path

import jsonschema


def _validator(name):
    spec = json.loads(resources.files("fusionpid").joinpath(f"schemas/{name}.json").read_text())
    return jsonschema.validators.validator_for(spec)(spec)


# the validator of the report each command writes
VALIDATORS = {"convert": _validator("run_report"), "agreement": _validator("agreement_report")}


def check_report(args, exit_code, stdout):
    """Validate the report that a successful `convert` or `agreement` call with `args`
    wrote: to the last `--out` path given, or else to stdout."""
    if exit_code != 0 or not args or args[0] not in VALIDATORS or "--help" in args:
        return
    outs = [value for option, value in zip(args, args[1:]) if option == "--out"]
    text = Path(outs[-1]).read_text() if outs else stdout
    VALIDATORS[args[0]].validate(json.loads(text))
