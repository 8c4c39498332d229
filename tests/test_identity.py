"""The byte-identity set of ``identity.py`` against its committed lines."""

from pathlib import Path

import identity

from coupled_mzi import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "identity.txt"


def test_every_invocation_gives_its_committed_line(tmp_path, monkeypatch):
    # regenerate after a change that moves bytes on purpose:
    #   PYTHONDONTWRITEBYTECODE=1 python tests/identity.py > tests/golden/identity.txt
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import make_round

    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = identity.lines(cli, make_round, tmp_path)
    for want, line in zip(expected, got):
        invocation = want.split("  ", 1)[1]
        assert line == want, f"the first invocation whose line differs: {invocation}"
    assert len(got) == len(expected)
