"""The bit sweep (``tests/bitsweep.py``) against the digests committed for
this build: a change that moves conversion, training or evaluation bits
fails here until it rewrites ``tests/bits`` and says why."""

import pytest

from bitsweep import BITS, build_key, sweep


def _digests(lines: list[str]) -> dict[str, str]:
    return dict(line.rsplit(" ", 1) for line in lines)


def test_bit_sweep_matches_the_committed_digests():
    path = BITS / f"{build_key()}.txt"
    if not path.exists():
        pytest.skip(f"no committed digests for build {build_key()}")
    want, got = _digests(path.read_text().splitlines()), _digests(sweep())
    differ = [name for name in want | got if want.get(name) != got.get(name)]
    assert not differ, (f"{len(differ)} of {len(want)} lines differ from {path.name} "
                        f"(rewrite it with `PYTHONPATH=src python tests/bitsweep.py --write` "
                        f"only for a deliberate change): " + "; ".join(differ))
