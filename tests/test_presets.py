"""Preset execution coverage.

Every preset must parse and validate (covered in test_harness); here the
cheap ones run to completion in-suite and the full-size benchmark presets
run under the ``slow`` marker (``pytest -m slow``).
"""

import pytest

from symkry.cli import available_presets, load_preset, main
from symkry.harness import config_from_mapping, run

DESK_CHEAP = ["fig1-left-desk", "fig1-right-desk", "fig2-desk", "fig3-desk",
              "fig4-desk", "fig5-desk"]


@pytest.mark.parametrize("name", DESK_CHEAP)
def test_desk_preset_runs_to_completion(name, tmp_path):
    assert main(["preset", name, "--output-dir", str(tmp_path)]) == 0
    assert any(tmp_path.iterdir())


def test_reference_scale_wave_preset_runs(tmp_path):
    # the full-size wave presets are quick enough to keep in the suite
    assert main(["preset", "fig1-right", "--output-dir", str(tmp_path)]) == 0


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(
    n for n in available_presets() if not n.endswith("-desk")))
def test_full_scale_preset_runs(name, tmp_path):
    for section, mapping in load_preset(name):
        mapping = dict(mapping)
        mapping["output"] = str(tmp_path / f"{name}-{section}.csv")
        config = config_from_mapping(mapping)
        run(config, quiet=True)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(
    n for n in available_presets() if n.endswith("-desk")))
def test_desk_preset_full_sweep(name, tmp_path):
    for section, mapping in load_preset(name):
        mapping = dict(mapping)
        mapping["output"] = str(tmp_path / f"{name}-{section}.csv")
        run(config_from_mapping(mapping), quiet=True)
