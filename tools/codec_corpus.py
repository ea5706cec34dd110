"""Time the per-message path on the traffic of one kdc_load unit.

Runs ``run_load(faults=False, requests=40, seed=1)`` once (the perfbench
``kdc_load`` unit) while recording every ``V5Codec.encode`` and
``V5Codec.decode`` call and every ``ChecksumSpec.compute`` input, then
replays each group on its own and prints the best of several passes:
the codec's encodes and decodes, CRC-32 and MD4 over the inputs their
checksum types saw.  Run it on two trees to compare them; the corpus is
the same on both as long as the unit's traffic is.

Usage::

    PYTHONPATH=src python tools/codec_corpus.py
"""

from __future__ import annotations

import time
from typing import Any, Callable, List

from repro.crypto.checksum import ChecksumSpec, ChecksumType
from repro.crypto.crc import crc32
from repro.crypto.md4 import md4
from repro.encoding.codec import V5Codec
from repro.load import run_load

PASSES = 30


def capture() -> dict:
    corpus: dict = {"encode": [], "decode": [], "crc32": [], "md4": []}
    encode, decode, compute = V5Codec.encode, V5Codec.decode, ChecksumSpec.compute

    def record_encode(schema: Any, values: Any) -> bytes:
        corpus["encode"].append((schema, values))
        return encode(schema, values)

    def record_decode(schema: Any, data: bytes) -> Any:
        corpus["decode"].append((schema, data))
        return decode(schema, data)

    def record_compute(spec: ChecksumSpec, data: bytes, key: bytes = b"") -> bytes:
        corpus["crc32" if spec.kind is ChecksumType.CRC32 else "md4"].append(data)
        return compute(spec, data, key)

    V5Codec.encode = staticmethod(record_encode)  # type: ignore[method-assign]
    V5Codec.decode = staticmethod(record_decode)  # type: ignore[method-assign]
    ChecksumSpec.compute = record_compute  # type: ignore[method-assign]
    try:
        run_load(faults=False, requests=40, seed=1, out_path=None)
    finally:
        V5Codec.encode = staticmethod(encode)  # type: ignore[method-assign]
        V5Codec.decode = staticmethod(decode)  # type: ignore[method-assign]
        ChecksumSpec.compute = compute  # type: ignore[method-assign]
    return corpus


def best_ms(replay: Callable[[], None]) -> float:
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        replay()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main() -> None:
    corpus = capture()
    encodes, decodes = corpus["encode"], corpus["decode"]
    crc_inputs: List[bytes] = corpus["crc32"]
    md4_inputs: List[bytes] = corpus["md4"]
    rows = [
        ("V5Codec.encode", len(encodes),
         sum(len(V5Codec.encode(s, v)) for s, v in encodes),
         lambda: [V5Codec.encode(s, v) for s, v in encodes]),
        ("V5Codec.decode", len(decodes), sum(len(d) for _, d in decodes),
         lambda: [V5Codec.decode(s, d) for s, d in decodes]),
        ("crc32", len(crc_inputs), sum(map(len, crc_inputs)),
         lambda: [crc32(d) for d in crc_inputs]),
        ("md4", len(md4_inputs), sum(map(len, md4_inputs)),
         lambda: [md4(d) for d in md4_inputs]),
    ]
    print(f"{'path':16s} {'calls':>6s} {'bytes':>8s} {'best_ms':>8s}")
    for name, calls, size, replay in rows:
        print(f"{name:16s} {calls:6d} {size:8d} {best_ms(replay):8.2f}")


if __name__ == "__main__":
    main()
