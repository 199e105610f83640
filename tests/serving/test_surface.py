"""Tests of surface precomputation and the versioned artifact contract."""

from __future__ import annotations

import hashlib
import json
import struct
import zipfile

import numpy as np
import pytest

from repro.cli import main
from repro.serving.surface import (
    GOSSIP_PROTOCOLS,
    SURFACE_FORMAT_VERSION,
    ReliabilitySurface,
    SurfaceGrid,
    SurfaceValidationError,
    build_surface,
    load_surface,
)

SEED = 20080149


def tiny_grid(**overrides) -> SurfaceGrid:
    defaults = dict(ns=(64,), qs=(0.8, 1.0), losses=(0.0, 0.2), fanouts=(2.0, 5.0))
    defaults.update(overrides)
    return SurfaceGrid(**defaults)


@pytest.fixture(scope="module")
def surface() -> ReliabilitySurface:
    return build_surface(tiny_grid(), repetitions=16, seed=SEED)


class TestSurfaceGrid:
    def test_shape_and_cells(self):
        grid = tiny_grid()
        assert grid.shape == (1, 2, 2, 2, 1)
        cells = list(grid.cells())
        assert len(cells) == 8
        # C order: the last axis varies fastest.
        assert cells[0][1:] == (64, 0.8, 0.0, 2.0, 0)
        assert cells[1][1:] == (64, 0.8, 0.0, 5.0, 0)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(ns=()),
            dict(qs=(0.9, 0.8)),  # not strictly increasing
            dict(losses=(0.0, 0.0)),  # duplicates
            dict(fanouts=(2.0, float("nan"))),
            dict(rounds=(0, 3)),  # sentinel may not mix with real horizons
            dict(rounds=(2.5,)),  # horizons must be integral
        ],
    )
    def test_invalid_axes_rejected(self, bad):
        with pytest.raises((SurfaceValidationError, ValueError)):
            tiny_grid(**bad)

    def test_manifest_round_trip(self):
        grid = tiny_grid(rounds=(2, 4))
        assert SurfaceGrid.from_manifest(grid.to_manifest()) == grid


class TestBuildSurface:
    def test_certificate_ordering(self, surface):
        assert np.all(surface.ci_low >= 0.0)
        assert np.all(surface.ci_low <= surface.mean + 1e-12)
        assert np.all(surface.mean <= surface.ci_high + 1e-12)
        assert np.all(surface.ci_high <= 1.0)
        assert np.all(surface.cost >= 0.0)

    def test_reliability_rises_with_fanout(self, surface):
        # At q=1, loss=0: fanout 5 beats fanout 2 on a 64-member group.
        lossless_q1 = surface.mean[0, 1, 0, :, 0]
        assert lossless_q1[1] >= lossless_q1[0]

    def test_deterministic(self):
        a = build_surface(tiny_grid(), repetitions=8, seed=SEED)
        b = build_surface(tiny_grid(), repetitions=8, seed=SEED)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.ci_low, b.ci_low)

    def test_parallel_matches_serial(self):
        serial = build_surface(tiny_grid(), repetitions=8, seed=SEED, processes=1)
        parallel = build_surface(tiny_grid(), repetitions=8, seed=SEED, processes=2)
        assert np.array_equal(serial.mean, parallel.mean)

    def test_protocol_surface_needs_horizons(self):
        with pytest.raises(SurfaceValidationError):
            build_surface(tiny_grid(), protocol="pbcast", repetitions=4, seed=SEED)
        with pytest.raises(SurfaceValidationError):
            build_surface(
                tiny_grid(rounds=(2, 4)), protocol="gossip-poisson", repetitions=4, seed=SEED
            )

    def test_protocol_surface_builds(self):
        surface = build_surface(
            tiny_grid(fanouts=(2.0, 4.0), rounds=(2, 4)),
            protocol="pbcast",
            repetitions=8,
            seed=SEED,
        )
        assert surface.protocol == "pbcast"
        assert surface.mean.shape == (1, 2, 2, 2, 2)
        # More rounds cannot hurt a push protocol (same seed per cell pair
        # is not guaranteed, so compare the certified lower bound loosely).
        assert surface.mean[0, 1, 0, 1, 1] >= surface.mean[0, 1, 0, 1, 0] - 0.2

    def test_unknown_protocol_rejected(self):
        with pytest.raises((SurfaceValidationError, KeyError, ValueError)):
            build_surface(tiny_grid(), protocol="carrier-pigeon", repetitions=4, seed=SEED)

    def test_confidence_with_infinite_quantile_refused(self):
        # The largest double below 1: 0.5 + c/2 rounds to 1, so no cell could
        # certify anything, and the build is refused before any cell runs.
        with pytest.raises(ValueError, match="0.9999999999999999"):
            build_surface(tiny_grid(), repetitions=4, confidence=0.9999999999999999, seed=SEED)

    def test_gossip_families_cover_zoo(self):
        assert "gossip-poisson" in GOSSIP_PROTOCOLS
        assert len(GOSSIP_PROTOCOLS) == 4


class TestArtifactContract:
    def test_save_load_round_trip(self, surface, tmp_path):
        npz_path, manifest_path = surface.save(tmp_path / "surf")
        assert npz_path.suffix == ".npz"
        assert manifest_path.name.endswith(".manifest.json")
        loaded = load_surface(npz_path)
        assert loaded.grid == surface.grid
        assert loaded.protocol == surface.protocol
        assert loaded.seed == surface.seed
        assert np.array_equal(loaded.mean, surface.mean)
        assert np.array_equal(loaded.ci_low, surface.ci_low)
        assert np.array_equal(loaded.cost, surface.cost)

    def test_missing_manifest_refused(self, surface, tmp_path):
        npz_path, manifest_path = surface.save(tmp_path / "surf")
        manifest_path.unlink()
        with pytest.raises(SurfaceValidationError, match="manifest"):
            load_surface(npz_path)

    def _tamper(self, manifest_path, **changes):
        manifest = json.loads(manifest_path.read_text())
        manifest.update(changes)
        manifest_path.write_text(json.dumps(manifest))

    def test_format_version_mismatch_refused(self, surface, tmp_path):
        npz_path, manifest_path = surface.save(tmp_path / "surf")
        self._tamper(manifest_path, format_version=SURFACE_FORMAT_VERSION + 1)
        with pytest.raises(SurfaceValidationError, match="format"):
            load_surface(npz_path)

    def test_engine_version_mismatch_refused(self, surface, tmp_path):
        npz_path, manifest_path = surface.save(tmp_path / "surf")
        self._tamper(manifest_path, engine_version="0.0.1-somebody-else")
        with pytest.raises(SurfaceValidationError, match="engine"):
            load_surface(npz_path)
        # The explicit escape hatch still works (and keeps the checksum gate).
        loaded = load_surface(npz_path, allow_version_mismatch=True)
        assert np.array_equal(loaded.mean, surface.mean)

    def test_seed_mismatch_refused(self, surface, tmp_path):
        npz_path, manifest_path = surface.save(tmp_path / "surf")
        self._tamper(manifest_path, seed=surface.seed + 1)
        with pytest.raises(SurfaceValidationError, match="seed"):
            load_surface(npz_path)

    def test_corrupted_arrays_refused(self, surface, tmp_path):
        npz_path, _ = surface.save(tmp_path / "surf")
        blob = bytearray(npz_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        npz_path.write_bytes(bytes(blob))
        with pytest.raises(SurfaceValidationError, match="checksum"):
            load_surface(npz_path)

    @staticmethod
    def _resign(npz_path, manifest_path, blob):
        """Write ``blob`` as the arrays and recompute the manifest checksum to match."""
        npz_path.write_bytes(bytes(blob))
        manifest = json.loads(manifest_path.read_text())
        manifest["arrays_sha256"] = hashlib.sha256(bytes(blob)).hexdigest()
        manifest_path.write_text(json.dumps(manifest))

    def test_undecodable_member_refused(self, surface, tmp_path):
        # Flip the first byte of one member's compressed stream: the archive
        # still opens, and the member fails to inflate or its CRC check.
        npz_path, manifest_path = surface.save(tmp_path / "surf")
        blob = bytearray(npz_path.read_bytes())
        with zipfile.ZipFile(npz_path) as archive:
            offset = archive.getinfo("mean.npy").header_offset
        name_len, extra_len = struct.unpack("<HH", blob[offset + 26 : offset + 30])
        blob[offset + 30 + name_len + extra_len] ^= 0xFF
        self._resign(npz_path, manifest_path, blob)
        with pytest.raises(SurfaceValidationError, match="unreadable surface arrays"):
            load_surface(npz_path)

    @pytest.mark.parametrize("fraction", [0.05, 0.5, 0.99])
    def test_truncated_arrays_refused(self, surface, tmp_path, capsys, fraction):
        # The checksum matches, so only reading the arrays can catch this.
        npz_path, manifest_path = surface.save(tmp_path / "surf")
        blob = npz_path.read_bytes()
        self._resign(npz_path, manifest_path, blob[: int(len(blob) * fraction)])
        with pytest.raises(SurfaceValidationError, match="unreadable surface arrays"):
            load_surface(npz_path)
        capsys.readouterr()
        assert main(["query", str(npz_path), "-q", "0.9", "-f", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unreadable surface arrays") and len(err.splitlines()) == 1

    def test_grid_mismatch_refused(self, surface, tmp_path):
        npz_path, manifest_path = surface.save(tmp_path / "surf")
        manifest = json.loads(manifest_path.read_text())
        manifest["grid"]["qs"] = [0.7, 1.0]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SurfaceValidationError):
            load_surface(npz_path)

    def test_load_takes_the_path_given_to_save(self, surface, tmp_path):
        # save() adds the .npz suffix; load_surface() applies the same rule.
        surface.save(tmp_path / "surf")
        assert np.array_equal(load_surface(tmp_path / "surf").mean, surface.mean)
        assert np.array_equal(load_surface(str(tmp_path / "surf")).mean, surface.mean)

    @pytest.mark.parametrize("document", ["[]", "null", "1", '"surface"'])
    def test_manifest_that_is_not_an_object_refused(self, surface, tmp_path, document):
        npz_path, manifest_path = surface.save(tmp_path / "surf")
        manifest_path.write_text(document)
        with pytest.raises(SurfaceValidationError, match="not a JSON object"):
            load_surface(npz_path)

    @pytest.mark.parametrize("blob", [b"\xff\xfe\x00", b"[" * 100_000])
    def test_undecodable_manifest_refused(self, surface, tmp_path, blob):
        # Not UTF-8 text, or JSON nested deeper than the decoder's stack.
        npz_path, manifest_path = surface.save(tmp_path / "surf")
        manifest_path.write_bytes(blob)
        with pytest.raises(SurfaceValidationError, match="unreadable manifest"):
            load_surface(npz_path)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("repetitions", "many"),
            ("repetitions", 16.5),
            ("repetitions", True),
            ("confidence", "0.95"),
            ("conditional_on_spread", "false"),
            ("conditional_on_spread", 0),
            ("protocol", 7),
            ("seed", str(SEED)),
        ],
    )
    def test_wrong_typed_field_refused(self, surface, tmp_path, field, value):
        npz_path, manifest_path = surface.save(tmp_path / "surf")
        self._tamper(manifest_path, **{field: value})
        with pytest.raises(SurfaceValidationError, match=field):
            load_surface(npz_path)

    @pytest.mark.parametrize("confidence", [0.9999999999999999, 1.0, 0])
    def test_confidence_without_finite_quantile_refused(self, surface, tmp_path, confidence):
        # Earlier builds wrote 0.9999999999999999, whose cells certify nothing.
        npz_path, manifest_path = surface.save(tmp_path / "surf")
        self._tamper(manifest_path, confidence=confidence)
        with pytest.raises(SurfaceValidationError, match="confidence"):
            load_surface(npz_path)

    def test_missing_field_refused(self, surface, tmp_path):
        npz_path, manifest_path = surface.save(tmp_path / "surf")
        manifest = json.loads(manifest_path.read_text())
        del manifest["conditional_on_spread"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SurfaceValidationError, match="missing field 'conditional_on_spread'"):
            load_surface(npz_path)

    def test_manifest_content(self, surface):
        manifest = surface.manifest()
        assert manifest["format_version"] == SURFACE_FORMAT_VERSION
        assert manifest["protocol"] == "gossip-poisson"
        assert manifest["repetitions"] == 16
        assert manifest["grid"]["fanouts"] == [2.0, 5.0]
