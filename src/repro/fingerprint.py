"""Process-stable content fingerprints for cache keys that cross the wire.

The generation cache keys synthesis work on catalog and cell-library
fingerprints.  Python's built-in ``hash()`` is randomized per process
(``PYTHONHASHSEED``), so a key containing it can never match between two
processes -- which is exactly what the fleet does: workers compute stage
entries and ship them to the server under the same keys.  Fingerprints
therefore hash *content* through blake2b and are identical wherever the
content is.

``blake2b`` comes from ``_blake2``, the module ``hashlib`` re-exports it
from (``hashlib.blake2b is _blake2.blake2b``), so digests are the same;
importing ``hashlib`` itself would map OpenSSL into every process that
fingerprints, the server included.
"""

from __future__ import annotations

from _blake2 import blake2b


def stable_fingerprint(*parts: object) -> int:
    """A 64-bit content digest of ``parts``, identical across processes.

    Parts are folded in via their ``repr`` (strings, numbers, tuples and
    frozen records all have stable, content-determined reprs), with a
    separator so adjacent parts cannot collide by concatenation.
    """
    digest = blake2b(digest_size=8)
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest(), "big")
