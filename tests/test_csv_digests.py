"""The CSV digest harness (`csv_digests.py`) runs the golden configs."""

import re

import csv_digests


def test_goldens_are_digested(tmp_path):
    lines = list(csv_digests.digests(csv_digests.golden_configs(), tmp_path))
    assert [name for _, name, _ in lines] == [
        "golden/free-decay",
        "golden/free-wavepacket",
        "golden/jcp-inversion",
        "golden/jcp-vacuum",
        "golden/parabola-eta",
        "golden/parabola-field",
        "golden/sphere-revival",
    ]
    assert all(code == 0 for _, _, code in lines)
    digests = [digest for digest, _, _ in lines]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in digests)
    assert len(set(digests)) == 7
    # the work directory is left empty but for the last config
    assert [path.name for path in tmp_path.iterdir()] == ["config.cfg"]
