"""Tests for the sweep cells: site generation per cell."""
import dataclasses

import fdseg.sweeps
from fdseg.data import BASE_SITE, NOVEL_SITE
from fdseg.sweeps import SweepSettings, run_data_addition_cell


def test_capped_cell_generates_each_site_once(monkeypatch):
    calls = []
    real = fdseg.sweeps.generate_site

    def counting(config, n, seed):
        calls.append(config.name)
        return real(config, n, seed)

    monkeypatch.setattr(fdseg.sweeps, "generate_site", counting)
    settings = SweepSettings(
        base_site=dataclasses.replace(BASE_SITE, image_size=(16, 16)),
        novel_site=dataclasses.replace(NOVEL_SITE, image_size=(16, 16)),
        n_base=12, n_novel=12, phase1_epochs=1, phase2_epochs=1, batch_size=4,
        base_channels=4, augment_train=False, cap_novel_at_base=True)
    row = run_data_addition_cell((settings, 1.0, 0, "seg_only"))
    assert row.status == "ok"
    assert sorted(calls) == ["base", "novel"]
