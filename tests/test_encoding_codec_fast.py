"""The compiled per-message path against the code it replaced.

``V5Codec`` decodes by walking the one shape it accepts, the checksums
run in C, and MD4's rounds are unrolled.  Each must behave exactly like
the generic code it replaced: same bytes out, same accept/reject
decision, same values, same error text.  The replaced code is kept
below, frozen, as the oracle (the way ``des_reference`` is kept for
DES): the generic recursive DER decoder, the codecs that walked it, the
table-driven CRC-32, the loop-based MD4 compression and the byte-fold
compare.

Inputs are seeded: random schemas and values, traffic captured from a
load run, and mutations of both (bit flips, truncations, insertions,
deletions, non-minimal lengths and integers, wrong tags).  A divergence
reproduces from the seed alone.
"""

import random
import struct
import zlib

import pytest

from repro.crypto.checksum import constant_time_compare
from repro.crypto.crc import crc32, forge_field
from repro.crypto.md4 import md4
from repro.encoding import der
from repro.encoding.codec import (
    CodecError, Field, FieldKind, Schema, V4Codec, V5Codec,
)
from repro.kerberos import messages as M
from repro.kerberos.messages import ALL_SCHEMAS

SEED = 20261018


# --- the oracle: the generic code as it was -------------------------------


def _ref_length(length):
    if length < 0x80:
        return bytes([length])
    body = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(body)]) + body


def _ref_tlv(tag, content):
    return bytes([tag]) + _ref_length(len(content)) + content


def _ref_integer(value):
    if value == 0:
        return _ref_tlv(0x02, b"\x00")
    body = value.to_bytes((value.bit_length() // 8) + 1, "big", signed=True)
    while len(body) > 1 and (
        (body[0] == 0x00 and not body[1] & 0x80)
        or (body[0] == 0xFF and body[1] & 0x80)
    ):
        body = body[1:]
    return _ref_tlv(0x02, body)


def _ref_decode_length(data, offset):
    if offset >= len(data):
        raise der.DerError("truncated length")
    first = data[offset]
    offset += 1
    if first < 0x80:
        return first, offset
    count = first & 0x7F
    if count == 0 or count > 8:
        raise der.DerError("unsupported length form")
    if offset + count > len(data):
        raise der.DerError("truncated long-form length")
    value = int.from_bytes(data[offset:offset + count], "big")
    if value < 0x80 and count == 1:
        raise der.DerError("non-minimal length encoding")
    return value, offset + count


def ref_der_decode(data, offset=0):
    if offset >= len(data):
        raise der.DerError("truncated tag")
    tag = data[offset]
    length, body_start = _ref_decode_length(data, offset + 1)
    body_end = body_start + length
    if body_end > len(data):
        raise der.DerError("content extends past end of data")
    body = data[body_start:body_end]
    if tag == 0x02:
        if not body:
            raise der.DerError("empty INTEGER")
        if len(body) > 1 and (
            (body[0] == 0x00 and not body[1] & 0x80)
            or (body[0] == 0xFF and body[1] & 0x80)
        ):
            raise der.DerError("non-minimal INTEGER")
        return tag, int.from_bytes(body, "big", signed=True), body_end
    if tag == 0x04:
        return tag, body, body_end
    if tag == 0x0C:
        try:
            return tag, body.decode("utf-8"), body_end
        except UnicodeDecodeError as exc:
            raise der.DerError(f"invalid UTF8String contents: {exc}")
    if tag == 0x30 or tag & 0xE0 in (0xA0, 0x60):
        return tag, ref_der_decode_all(body), body_end
    raise der.DerError(f"unsupported tag 0x{tag:02x}")


def ref_der_decode_all(data):
    items = []
    offset = 0
    while offset < len(data):
        tag, value, offset = ref_der_decode(data, offset)
        items.append((tag, value))
    return items


def ref_validate(schema, values):
    names = tuple(f.name for f in schema.fields)
    missing = [n for n in names if n not in values]
    extra = [n for n in values if n not in names]
    if missing or extra:
        raise CodecError(
            f"{schema.name}: missing fields {missing}, unexpected {extra}"
        )
    for field in schema.fields:
        value = values[field.name]
        if field.kind is FieldKind.UINT and not (
            isinstance(value, int) and value >= 0
        ):
            raise CodecError(f"{schema.name}.{field.name}: expected uint")
        if field.kind is FieldKind.BYTES and not isinstance(value, (bytes, bytearray)):
            raise CodecError(f"{schema.name}.{field.name}: expected bytes")
        if field.kind is FieldKind.STRING and not isinstance(value, str):
            raise CodecError(f"{schema.name}.{field.name}: expected str")


def ref_v5_encode(schema, values):
    ref_validate(schema, values)
    elements = []
    for index, field in enumerate(schema.fields):
        value = values[field.name]
        if field.kind is FieldKind.UINT:
            inner = _ref_integer(value)
        elif field.kind is FieldKind.BYTES:
            inner = _ref_tlv(0x04, bytes(value))
        else:
            inner = _ref_tlv(0x0C, value.encode("utf-8"))
        if not 0 <= index < 31:
            raise der.DerError("context tag number out of supported range")
        elements.append(_ref_tlv(0xA0 | index, inner))
    if not 0 <= schema.type_code < 31:
        raise der.DerError("application tag number out of supported range")
    return _ref_tlv(0x60 | schema.type_code,
                    _ref_tlv(0x30, b"".join(elements)))


def ref_v5_decode(schema, data):
    try:
        tag, body, end = ref_der_decode(data)
    except der.DerError as exc:
        raise CodecError(f"{schema.name}: {exc}") from exc
    if end != len(data):
        raise CodecError(f"{schema.name}: trailing bytes")
    if tag != (0x60 | schema.type_code):
        raise CodecError(
            f"{schema.name}: wrong message type tag 0x{tag:02x}, "
            f"expected APPLICATION {schema.type_code}"
        )
    if len(body) != 1 or body[0][0] != 0x30:
        raise CodecError(f"{schema.name}: missing SEQUENCE body")
    elements = body[0][1]
    if len(elements) != len(schema.fields):
        raise CodecError(
            f"{schema.name}: {len(elements)} fields, "
            f"expected {len(schema.fields)}"
        )
    values = {}
    for index, (field, (tag, inner)) in enumerate(zip(schema.fields, elements)):
        if tag != (0xA0 | index):
            raise CodecError(f"{schema.name}.{field.name}: bad context tag")
        if len(inner) != 1:
            raise CodecError(f"{schema.name}.{field.name}: bad wrapper")
        inner_tag, value = inner[0]
        expected = {FieldKind.UINT: 0x02, FieldKind.BYTES: 0x04,
                    FieldKind.STRING: 0x0C}[field.kind]
        if inner_tag != expected:
            raise CodecError(
                f"{schema.name}.{field.name}: type mismatch "
                f"(tag 0x{inner_tag:02x})"
            )
        if field.kind is FieldKind.UINT and value < 0:
            raise CodecError(f"{schema.name}.{field.name}: negative uint")
        values[field.name] = value
    return values


def ref_v4_encode(schema, values):
    ref_validate(schema, values)
    out = bytearray()
    for field in schema.fields:
        value = values[field.name]
        if field.kind is FieldKind.UINT:
            if value >= 1 << 64:
                raise CodecError(f"{field.name}: uint too large for v4")
            out += value.to_bytes(8, "big")
        elif field.kind is FieldKind.BYTES:
            out += len(value).to_bytes(2, "big") + bytes(value)
        else:
            encoded = value.encode("utf-8")
            out += len(encoded).to_bytes(2, "big") + encoded
    return bytes(out)


def ref_v4_decode(schema, data):
    values = {}
    offset = 0
    for field in schema.fields:
        if field.kind is FieldKind.UINT:
            if offset + 8 > len(data):
                raise CodecError(f"{schema.name}.{field.name}: truncated")
            values[field.name] = int.from_bytes(data[offset:offset + 8], "big")
            offset += 8
            continue
        if offset + 2 > len(data):
            raise CodecError(f"{schema.name}.{field.name}: truncated")
        length = int.from_bytes(data[offset:offset + 2], "big")
        offset += 2
        if offset + length > len(data):
            raise CodecError(f"{schema.name}.{field.name}: truncated")
        blob = data[offset:offset + length]
        offset += length
        if field.kind is FieldKind.BYTES:
            values[field.name] = blob
        else:
            try:
                values[field.name] = blob.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CodecError(f"{schema.name}.{field.name}: bad utf-8") from exc
    if offset != len(data):
        raise CodecError(f"{schema.name}: {len(data) - offset} trailing bytes")
    return values


def _ref_crc_table():
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_REF_CRC_TABLE = _ref_crc_table()


def ref_crc32(data, initial=0xFFFFFFFF):
    crc = initial
    for byte in data:
        crc = _REF_CRC_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def _rotl(value, amount):
    value &= 0xFFFFFFFF
    return ((value << amount) | (value >> (32 - amount))) & 0xFFFFFFFF


def _ref_md4_compress(state, block):
    x = struct.unpack("<16I", block)
    a, b, c, d = state
    rounds = (
        (lambda p, q, r: (p & q) | (~p & r), 0, range(16), (3, 7, 11, 19)),
        (lambda p, q, r: (p & q) | (p & r) | (q & r), 0x5A827999,
         [(i % 4) * 4 + i // 4 for i in range(16)], (3, 5, 9, 13)),
        (lambda p, q, r: p ^ q ^ r, 0x6ED9EBA1,
         (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15), (3, 9, 11, 15)),
    )
    for mix, constant, order, shifts in rounds:
        for i, k in enumerate(order):
            s = shifts[i % 4]
            target = (16 - i) % 4
            if target == 0:
                a = _rotl(a + mix(b, c, d) + x[k] + constant, s)
            elif target == 3:
                d = _rotl(d + mix(a, b, c) + x[k] + constant, s)
            elif target == 2:
                c = _rotl(c + mix(d, a, b) + x[k] + constant, s)
            else:
                b = _rotl(b + mix(c, d, a) + x[k] + constant, s)
    return [(s + r) & 0xFFFFFFFF for s, r in zip(state, (a, b, c, d))]


def ref_md4(data):
    padded = (data + b"\x80" + b"\x00" * ((55 - len(data)) % 64)
              + struct.pack("<Q", len(data) * 8))
    state = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476]
    for offset in range(0, len(padded), 64):
        state = _ref_md4_compress(state, padded[offset:offset + 64])
    return struct.pack("<4I", *state)


def ref_compare(left, right):
    if len(left) != len(right):
        return False
    diff = 0
    for a, b in zip(left, right):
        diff |= a ^ b
    return diff == 0


# --- generators -------------------------------------------------------------

_KINDS = (FieldKind.UINT, FieldKind.BYTES, FieldKind.STRING)


def random_schema(rng):
    fields = tuple(
        Field(f"f{i}", rng.choice(_KINDS)) for i in range(rng.randint(0, 9))
    )
    return Schema(f"s{rng.randint(0, 99)}", rng.randint(0, 30), fields)


def random_value(rng, kind):
    if kind is FieldKind.UINT:
        return rng.getrandbits(rng.choice([0, 1, 7, 8, 9, 15, 16, 31, 63, 64]))
    if kind is FieldKind.BYTES:
        size = rng.choice([0, 1, 8, 125, 126, 127, 128, 255, 256, rng.randint(0, 40)])
        return bytes(rng.getrandbits(8) for _ in range(size))
    alphabet = "abcXYZ019._-@/é世"
    return "".join(rng.choice(alphabet) for _ in range(rng.choice([0, 5, 60, 130])))


def random_values(rng, schema):
    return {f.name: random_value(rng, f.kind) for f in schema.fields}


def _length_variant(rng, length):
    """A length octet string: mostly minimal, sometimes a form the DER
    subset rejects (0x81 n below 128, indefinite 0x80, nine octets) or
    one it accepts although it is not minimal (0x82 0x00 n)."""
    form = rng.random()
    if form < 0.7:
        return _ref_length(length)
    if form < 0.8 and length < 0x80:
        return bytes([0x81, length])
    if form < 0.9 and length < 0x100:
        return bytes([0x82, 0x00, length])
    if form < 0.95:
        return b"\x80"
    return b"\x89" + length.to_bytes(9, "big")


def variant_encoding(rng, schema, values):
    """The V5 shape built by hand with random length forms, padded or
    negative integers, and the odd wrong tag or extra element."""
    def tlv(tag, content):
        return bytes([tag]) + _length_variant(rng, len(content)) + content

    elements = []
    for index, field in enumerate(schema.fields):
        value = values[field.name]
        if field.kind is FieldKind.UINT:
            body = _ref_integer(value)[2:]
            roll = rng.random()
            if roll < 0.1:
                body = b"\x00" + body          # non-minimal INTEGER
            elif roll < 0.2:
                body = b"\xff" + body[1:] if len(body) > 1 else b"\x80"  # negative
            elif roll < 0.25:
                body = b""                     # empty INTEGER
            inner = tlv(0x02, body)
        elif field.kind is FieldKind.BYTES:
            inner = tlv(0x04, bytes(value))
        else:
            raw = value.encode("utf-8")
            if rng.random() < 0.1:
                raw += b"\xff"                 # invalid UTF-8
            inner = tlv(0x0C, raw)
        roll = rng.random()
        if roll < 0.05:
            inner = tlv(rng.choice([0x02, 0x04, 0x0C, 0x13]), inner[2:])
        elif roll < 0.1:
            inner += _ref_integer(7)           # two TLVs in one wrapper
        tag = 0xA0 | index
        if rng.random() < 0.05:
            tag = 0xA0 | rng.randint(0, 30)
        elements.append(tlv(tag, inner))
    if rng.random() < 0.05:
        elements.append(tlv(0xA0 | len(elements), _ref_integer(1)))
    sequence = tlv(0x30 if rng.random() > 0.05 else 0x31, b"".join(elements))
    if rng.random() < 0.05:
        sequence += _ref_tlv(0x30, b"")
    return tlv(0x60 | schema.type_code, sequence)


def mutations(rng, wire):
    """Seeded corruptions of one encoding."""
    out = []
    if wire:
        for _ in range(4):
            flipped = bytearray(wire)
            flipped[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
            out.append(bytes(flipped))
        out.append(wire[:rng.randrange(len(wire))])
        at = rng.randrange(len(wire))
        out.append(wire[:at] + wire[at + 1:])
    at = rng.randint(0, len(wire))
    out.append(wire[:at] + bytes([rng.getrandbits(8)]) + wire[at:])
    out.append(wire + bytes([rng.getrandbits(8)]))
    return out


def outcome(decode, schema, data):
    try:
        values = decode(schema, data)
    except (CodecError, der.DerError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", [(k, type(v).__name__, v) for k, v in values.items()])


def captured_traffic(monkeypatch):
    """Every V5 message a short load run encodes or decodes."""
    from repro.load import run_load

    seen = []
    encode, decode = V5Codec.encode, V5Codec.decode

    def record_encode(schema, values):
        wire = encode(schema, values)
        seen.append((schema, wire))
        return wire

    def record_decode(schema, data):
        seen.append((schema, bytes(data)))
        return decode(schema, data)

    with monkeypatch.context() as patch:
        patch.setattr(V5Codec, "encode", staticmethod(record_encode))
        patch.setattr(V5Codec, "decode", staticmethod(record_decode))
        run_load(faults=False, requests=6, seed=1, out_path=None)
    return seen


# --- the codec --------------------------------------------------------------


def test_v5_decode_agrees_with_the_generic_decoder(monkeypatch):
    rng = random.Random(SEED)
    payloads = []
    for schema, wire in captured_traffic(monkeypatch):
        payloads.append((schema, wire))
        payloads.append((rng.choice(ALL_SCHEMAS), wire))
        payloads.extend((schema, bad) for bad in mutations(rng, wire))
    for _ in range(600):
        schema = random_schema(rng)
        values = random_values(rng, schema)
        wire = ref_v5_encode(schema, values)
        payloads.append((schema, wire))
        payloads.append((schema, bytearray(wire)))
        payloads.append((schema, variant_encoding(rng, schema, values)))
        payloads.extend((schema, bad) for bad in mutations(rng, wire))
        payloads.append((schema, bytes(rng.getrandbits(8)
                                       for _ in range(rng.randint(0, 40)))))

    divergent = [
        (schema.name, bytes(data).hex())
        for schema, data in payloads
        if outcome(V5Codec.decode, schema, data)
        != outcome(ref_v5_decode, schema, data)
    ]
    accepted = sum(outcome(V5Codec.decode, s, d)[0] == "ok" for s, d in payloads)
    assert len(payloads) > 8000 and 0 < accepted < len(payloads)
    assert divergent == [], f"{len(divergent)} of {len(payloads)}: {divergent[:3]}"


def test_v4_decode_agrees_with_the_old_walk():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        schema = random_schema(rng)
        wire = ref_v4_encode(schema, random_values(rng, schema))
        for data in [wire] + mutations(rng, wire):
            assert outcome(V4Codec.decode, schema, data) \
                == outcome(ref_v4_decode, schema, data)


def _encode_outcome(encode, schema, values):
    try:
        return ("ok", encode(schema, values))
    except (CodecError, der.DerError) as exc:
        return ("error", type(exc).__name__, str(exc))


@pytest.mark.parametrize("codec,reference", [
    (V5Codec, ref_v5_encode), (V4Codec, ref_v4_encode),
], ids=["v5", "v4"])
def test_encode_is_byte_identical_to_the_old_encoder(codec, reference):
    rng = random.Random(f"{SEED}:{codec.name}")
    schemas = list(ALL_SCHEMAS) + [random_schema(rng) for _ in range(200)]
    for schema in schemas:
        values = random_values(rng, schema)
        assert _encode_outcome(codec.encode, schema, values) \
            == _encode_outcome(reference, schema, values)
        # Invalid values: the same refusal, word for word.
        broken = [dict(values, extra=1), dict(values, f0=-1),
                  dict(values, f0=None), dict(values, f0=1 << 64)]
        if schema.fields:
            first = schema.fields[0].name
            broken.append({k: v for k, v in values.items() if k != first})
            broken.append(dict(values, **{first: bytearray(b"ab")}))
        for bad in broken:
            assert _encode_outcome(codec.encode, schema, bad) \
                == _encode_outcome(reference, schema, bad)


def test_tag_numbers_out_of_range_fail_as_before():
    wide = Schema("wide", 3, tuple(Field(f"f{i}", FieldKind.UINT) for i in range(32)))
    values = {f"f{i}": i for i in range(32)}
    app = Schema("app", 31, (Field("a", FieldKind.UINT),))
    for schema, vals in ((wide, values), (app, {"a": 1})):
        assert _encode_outcome(V5Codec.encode, schema, vals) \
            == _encode_outcome(ref_v5_encode, schema, vals)
    assert V4Codec.decode(wide, V4Codec.encode(wide, values)) == values


def test_der_decode_agrees_with_the_recursive_decoder():
    rng = random.Random(SEED + 2)
    for _ in range(1500):
        schema = random_schema(rng)
        wire = variant_encoding(rng, schema, random_values(rng, schema))
        for data in [wire] + mutations(rng, wire):
            try:
                expected = ("ok", ref_der_decode(data))
            except der.DerError as exc:
                expected = ("error", str(exc))
            try:
                got = ("ok", der.decode(data))
            except der.DerError as exc:
                got = ("error", str(exc))
            assert got == expected, data.hex()


# --- deep nesting: a DerError, not a RecursionError -------------------------


def _nested_sequences(depth):
    blob = b"\x30\x00"
    for _ in range(depth - 1):
        blob = _ref_tlv(0x30, blob)
    return blob


def test_deep_nesting_raises_der_error():
    blob = _nested_sequences(1200)
    assert len(blob) == 4629
    with pytest.raises(der.DerError, match="nested deeper than"):
        der.decode(blob)
    # Up to the bound, nesting still decodes.
    tag, value, _ = der.decode(_nested_sequences(der.MAX_DEPTH))
    assert tag == 0x30 and value


def test_deep_nesting_is_a_codec_error():
    blob = _nested_sequences(1200)
    for schema in (M.AS_REQ, M.TGS_REQ):
        with pytest.raises(CodecError, match="nested deeper than"):
            V5Codec.decode(schema, blob)
    wrapped = der.encode_application(M.AS_REQ.type_code, blob)
    with pytest.raises(CodecError, match="nested deeper than"):
        V5Codec.decode(M.AS_REQ, wrapped)


# --- checksums ----------------------------------------------------------------


def test_md4_agrees_with_the_loop_on_every_length_to_300():
    rng = random.Random(SEED + 3)
    for length in range(301):
        data = bytes(rng.getrandbits(8) for _ in range(length))
        assert md4(data) == ref_md4(data), length
    assert md4(b"abc").hex() == "a448017aaf21d8525fc10ae87aa6729d"
    assert md4(b"1234567890" * 8).hex() == "e33b4ddc9c38f2199c3e7b164fcc0536"


def test_crc32_agrees_with_the_table_loop():
    rng = random.Random(SEED + 4)
    for length in list(range(70)) + [255, 256, 1024]:
        data = bytes(rng.getrandbits(8) for _ in range(length))
        assert crc32(data) == ref_crc32(data) == zlib.crc32(data)
        for initial in (0, 1, 0x12345678, 0xFFFFFFFE, rng.getrandbits(32)):
            assert crc32(data, initial) == ref_crc32(data, initial), (length, initial)


def test_forge_field_still_round_trips():
    rng = random.Random(SEED + 5)
    for _ in range(20):
        message = bytes(rng.getrandbits(8) for _ in range(rng.randint(8, 90)))
        offset = rng.randint(0, len(message) - 4)
        target = rng.getrandbits(32)
        forged = forge_field(message, offset, target)
        assert ref_crc32(forged) == crc32(forged) == target
        assert forged[:offset] == message[:offset]
        assert forged[offset + 4:] == message[offset + 4:]


def test_constant_time_compare_matches_the_fold():
    cases = [
        (b"", b""), (b"a", b""), (b"abc", b"abc"), (b"abc", b"abd"),
        (b"abc", b"abcd"), (bytearray(b"key!"), b"key!"),
        (b"key!", bytearray(b"key?")), (bytearray(16), bytearray(16)),
    ]
    for left, right in cases:
        assert constant_time_compare(left, right) is ref_compare(left, right)
    assert constant_time_compare(b"\x00" * 8, b"\x00" * 7) is False
