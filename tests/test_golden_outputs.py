"""Output bytes held across commits: every case of
``record_golden_outputs.CASES`` gives the digest recorded in
``golden_outputs.json``.  Under a numpy version other than the recorded
one the test fails and names both versions; rerunning the recorder then
shows which cases that numpy changes."""

import json

import numpy as np
import pytest

from record_golden_outputs import CASES, GOLDEN_PATH, compute_all


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    if golden["numpy"] != np.__version__:
        pytest.fail(
            f"golden outputs were recorded under numpy {golden['numpy']} ({golden['platform']}), "
            f"this is numpy {np.__version__}: rerun tests/record_golden_outputs.py and review the changed cases"
        )
    recorded = {name: {k: v for k, v in case.items() if k != "digest"} for name, case in golden["cases"].items()}
    assert recorded == CASES, "the case list differs from the recorder's: rerun tests/record_golden_outputs.py"
    digests = compute_all(tmp_path)
    changed = [name for name, digest in digests.items() if digest != golden["cases"][name]["digest"]]
    assert changed == [], f"output bytes changed (recorded on {golden['platform']}): {changed}"
