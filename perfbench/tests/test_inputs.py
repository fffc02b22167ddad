"""Seeded input generation is deterministic and never wraps a volume count."""

import numpy as np

import gate
import inputs
from marketreg.simulate import simulate_volume


def _files(tmp_path, name, seed):
    return {p.name: p.read_bytes() for p in inputs.write_inputs("paper-six", seed, tmp_path / name)}


def test_same_seed_gives_byte_identical_files(tmp_path):
    first, again = _files(tmp_path, "a", 7), _files(tmp_path, "b", 7)
    assert len(first) == 6
    assert first == again


def test_other_seed_gives_other_files(tmp_path):
    first, other = _files(tmp_path, "a", 7), _files(tmp_path, "b", 8)
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)


def test_every_path_has_its_own_seed():
    seeds = {inputs.sweep_spec(3, k).seed for k in range(200)}
    assert len(seeds) == 200
    assert inputs.sweep_spec(3, 5) == inputs.sweep_spec(3, 5)


def test_long_history_volumes_fit_int64():
    counts = simulate_volume(inputs.VOLUME_NU, inputs.VOLUME_N0, 0.0, inputs.LONG_DAYS, 1)
    gate.check_volume_column(counts, inputs.VOLUME_NU, inputs.VOLUME_N0)
    assert counts[-1] == np.rint(inputs.VOLUME_N0 * np.exp(inputs.VOLUME_NU * (inputs.LONG_DAYS - 1)))
