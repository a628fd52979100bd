"""Live-follow of ``channels.json`` across processes
(:mod:`repro.serve.registry`).

``_sync_channels`` detects out-of-process edits by ``(mtime_ns, size)``
signature.  These tests pin down the hard case: the file is rewritten
*within the same mtime tick* with the *same byte length*, so the
signature cannot change.  The stat-based fast path is then blind by
design — but a reference that misses must still recover through the
``_parse_ref`` miss -> ``refresh()`` retry, and ``refresh()`` must
record the signature of the file it just consumed so the follower does
not re-read (or worse, half-apply) a file it has already indexed.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import TwoBranchSoCNet
from repro.serve import ModelRegistry


@pytest.fixture()
def models():
    rng = np.random.default_rng(7)
    return TwoBranchSoCNet(rng=rng), TwoBranchSoCNet(rng=rng)


def _rewrite_same_signature(path, text: str) -> None:
    """Rewrite ``path`` with ``text`` keeping (mtime_ns, size) identical."""
    before = path.stat()
    path.write_text(text, encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_mtime_ns, after.st_size) == (before.st_mtime_ns, before.st_size)


class TestChannelsFileLiveFollow:
    def test_same_tick_rewrite_recovers_via_reference_miss(self, models, tmp_path):
        m1, m2 = models
        publisher = ModelRegistry(tmp_path)
        publisher.publish("m", m1)
        publisher.publish("m", m2)
        channels_path = tmp_path / "channels.json"
        # both payloads are exactly 33 bytes: "color1"/"canary" are the
        # same length, as are the version digits
        channels_path.write_text('{"m": {"color1": 1, "stable": 1}}', encoding="utf-8")

        follower = ModelRegistry(tmp_path)  # constructor refresh() caches the signature
        assert follower.channels("m") == {"color1": 1, "stable": 1}

        _rewrite_same_signature(channels_path, '{"m": {"canary": 2, "stable": 1}}')

        # the stat fast path cannot see this rewrite: same mtime tick,
        # same size.  channels() (signature-gated) still serves the old
        # pointers — the documented blind spot.
        assert follower.channels("m") == {"color1": 1, "stable": 1}

        # ...but a reference that misses falls through to a full
        # refresh() and retry, which re-reads the file regardless
        expected = follower.load("m@v2").estimate_soc(3.7, 1.0, 25.0)
        np.testing.assert_allclose(
            follower.load("m@canary").estimate_soc(3.7, 1.0, 25.0), expected
        )
        assert follower.channels("m") == {"canary": 2, "stable": 1}

    def test_refresh_counts_as_having_seen_the_file(self, models, tmp_path):
        m1, _ = models
        publisher = ModelRegistry(tmp_path)
        publisher.publish("m", m1)
        channels_path = tmp_path / "channels.json"

        follower = ModelRegistry(tmp_path)
        stat = channels_path.stat()
        assert follower._channels_sig == (stat.st_mtime_ns, stat.st_size)

        # an explicit re-index must refresh the signature too, so the
        # next _sync_channels doesn't pointlessly re-read the same file
        follower.refresh()
        assert follower._channels_sig == (stat.st_mtime_ns, stat.st_size)

    def test_normal_rewrite_is_followed_without_a_miss(self, models, tmp_path):
        m1, m2 = models
        publisher = ModelRegistry(tmp_path)
        publisher.publish("m", m1)
        follower = ModelRegistry(tmp_path)
        assert follower.channels("m") == {"stable": 1}

        publisher.publish("m", m2, channel="canary")  # changes size and/or mtime
        assert follower.channels("m") == {"stable": 1, "canary": 2}

    def test_deleted_channels_file_keeps_last_known_pointers(self, models, tmp_path):
        m1, m2 = models
        publisher = ModelRegistry(tmp_path)
        publisher.publish("m", m1)
        publisher.publish("m", m2, channel="canary")
        follower = ModelRegistry(tmp_path)
        assert follower.channels("m") == {"stable": 1, "canary": 2}

        (tmp_path / "channels.json").unlink()
        # stat() fails -> sync keeps the cached pointers rather than
        # forgetting the canary
        assert follower.channels("m") == {"stable": 1, "canary": 2}

    def test_pointer_to_unindexed_version_triggers_reindex(self, models, tmp_path):
        m1, m2 = models
        publisher = ModelRegistry(tmp_path)
        publisher.publish("m", m1)
        follower = ModelRegistry(tmp_path)
        assert follower.channels("m") == {"stable": 1}

        # another process publishes v2 AND points a channel at it: the
        # follower sees a pointer to a version it has not indexed and
        # must re-index from disk instead of dropping the pointer
        publisher.publish("m", m2, channel="canary")
        assert follower.channels("m") == {"stable": 1, "canary": 2}
        assert follower.describe("m@canary").version == 2

    def test_same_signature_rewrite_is_plausible(self, tmp_path):
        # guard the test premise itself: the helper really does produce
        # an identical (mtime_ns, size) signature
        path = tmp_path / "channels.json"
        path.write_text(json.dumps({"m": {"stable": 1}}), encoding="utf-8")
        before = path.stat()
        _rewrite_same_signature(path, json.dumps({"m": {"stable": 2}}))
        after = path.stat()
        assert (after.st_mtime_ns, after.st_size) == (before.st_mtime_ns, before.st_size)


class TestOwnWrites:
    def test_publish_and_promote_move_generation_once(self, models, tmp_path, monkeypatch):
        """A process's own channels.json write is not mistaken for an
        out-of-process rewrite: one publish or promote moves the
        generation by exactly 1 and the next lookup reads nothing."""
        m1, m2 = models
        registry = ModelRegistry(tmp_path)
        registry.publish("m", m1)
        reads = []
        read_text = Path.read_text

        def counting_read_text(path, *args, **kwargs):
            reads.append(path.name)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        generation = registry.generation
        registry.publish("m", m2, channel="canary")
        assert registry.generation == generation + 1
        assert registry.resolve() == "m"
        assert registry.generation == generation + 1
        registry.promote("m")
        assert registry.generation == generation + 2
        assert registry.channels("m") == {"stable": 2}
        assert registry.load("m") is not None
        assert "channels.json" not in reads
