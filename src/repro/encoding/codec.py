"""Message schemas and the two wire codecs (V4-style and V5-style).

The paper ties a whole class of cut-and-paste attacks to the *encoding*
of protocol messages:

    "The most simple analysis of the security of the Kerberos protocols
    should check that there is no possibility of ambiguity between
    messages sent in different contexts.  That is, a ticket should never
    be interpretable as an authenticator, or vice versa."

We model both generations:

* :class:`V4Codec` packs fields positionally with length prefixes but
  **no message-type label and no field names** — exactly the property
  that forces the "repetitive and often intricate analysis" the paper
  complains about, and that lets bytes produced in one context parse
  cleanly in another when the shapes happen to align
  (``repro.attacks`` exploits this; benchmark E20 measures it).

* :class:`V5Codec` wraps the same fields in the DER subset of
  :mod:`repro.encoding.der`, with the message type carried as an
  APPLICATION tag *inside* what gets encrypted (recommendation b).
  Cross-context decoding fails structurally.

A message schema is an ordered tuple of :class:`Field` descriptors; the
kerberos layer declares one schema per message type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, FrozenSet, NoReturn, Tuple

from repro.encoding import der

__all__ = ["FieldKind", "Field", "Schema", "CodecError", "V4Codec", "V5Codec"]


class CodecError(ValueError):
    """Raised when bytes do not parse under the expected schema."""


class FieldKind(enum.Enum):
    UINT = "uint"      # unsigned integer (timestamps, lifetimes, kvnos...)
    BYTES = "bytes"    # opaque bytes (keys, tickets, checksums)
    STRING = "string"  # principal names, realms


#: The universal tag each field kind is carried under in V5.
_INNER_TAG = {FieldKind.UINT: 0x02, FieldKind.BYTES: 0x04, FieldKind.STRING: 0x0C}


@dataclass(frozen=True)
class Field:
    """One named, typed slot in a message schema."""

    name: str
    kind: FieldKind


@dataclass(frozen=True)
class Schema:
    """An ordered field list plus a numeric message-type code.

    The *type_code* is what V5 puts on the wire (and inside encrypted
    data) and what V4 deliberately omits.

    Construction compiles the field list once into ``plan``: one
    ``(name, kind, inner_tag, context_tag)`` row per field, where
    *inner_tag* is the field's V5 universal tag and *context_tag* its
    ``[i]`` wrapper.  Both codecs and :meth:`validate` read the plan
    instead of re-deriving it per message.
    """

    name: str
    type_code: int
    fields: Tuple[Field, ...]
    plan: Tuple[Tuple[str, FieldKind, int, int], ...] = dataclass_field(
        init=False, repr=False, compare=False)
    _names: FrozenSet[str] = dataclass_field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", tuple(
            (f.name, f.kind, _INNER_TAG[f.kind], 0xA0 | i)
            for i, f in enumerate(self.fields)
        ))
        object.__setattr__(self, "_names", frozenset(self.field_names()))

    def field_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def validate(self, values: Dict[str, Any]) -> None:
        if self._names.symmetric_difference(values):
            names = self.field_names()
            missing = [n for n in names if n not in values]
            extra = [n for n in values if n not in names]
            raise CodecError(
                f"{self.name}: missing fields {missing}, unexpected {extra}"
            )
        for name, kind, _, _ in self.plan:
            value = values[name]
            if kind is FieldKind.UINT:
                if not (isinstance(value, int) and value >= 0):
                    raise CodecError(f"{self.name}.{name}: expected uint")
            elif kind is FieldKind.BYTES:
                if not isinstance(value, (bytes, bytearray)):
                    raise CodecError(f"{self.name}.{name}: expected bytes")
            elif not isinstance(value, str):
                raise CodecError(f"{self.name}.{name}: expected str")


class V4Codec:
    """Positional packing: 8-byte big-endian uints, length-prefixed blobs.

    There is no type tag and no redundancy beyond the length prefixes, so
    any two schemas whose field-kind sequences match are mutually
    (mis)parseable — the encoding-ambiguity weakness.
    """

    name = "v4"

    @staticmethod
    def encode(schema: Schema, values: Dict[str, Any]) -> bytes:
        schema.validate(values)
        out = bytearray()
        for name, kind, _, _ in schema.plan:
            value = values[name]
            if kind is FieldKind.UINT:
                if value >= 1 << 64:
                    raise CodecError(f"{name}: uint too large for v4")
                out += value.to_bytes(8, "big")
            elif kind is FieldKind.BYTES:
                out += len(value).to_bytes(2, "big") + bytes(value)
            else:
                encoded = value.encode("utf-8")
                out += len(encoded).to_bytes(2, "big") + encoded
        return bytes(out)

    @staticmethod
    def decode(schema: Schema, data: bytes) -> Dict[str, Any]:
        values: Dict[str, Any] = {}
        offset = 0
        for name, kind, _, _ in schema.plan:
            if kind is FieldKind.UINT:
                if offset + 8 > len(data):
                    raise CodecError(f"{schema.name}.{name}: truncated")
                values[name] = int.from_bytes(data[offset:offset + 8], "big")
                offset += 8
            else:
                if offset + 2 > len(data):
                    raise CodecError(f"{schema.name}.{name}: truncated")
                length = int.from_bytes(data[offset:offset + 2], "big")
                offset += 2
                if offset + length > len(data):
                    raise CodecError(f"{schema.name}.{name}: truncated")
                blob = data[offset:offset + length]
                offset += length
                if kind is FieldKind.BYTES:
                    values[name] = blob
                else:
                    try:
                        values[name] = blob.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise CodecError(
                            f"{schema.name}.{name}: bad utf-8"
                        ) from exc
        if offset != len(data):
            raise CodecError(f"{schema.name}: {len(data) - offset} trailing bytes")
        return values


class V5Codec:
    """DER encoding with the message type inside an APPLICATION tag.

    ``[APPLICATION type_code] SEQUENCE { [i] field_i }`` — decoding under
    the wrong schema fails on the outer tag before any field is read, the
    property recommendation (b) buys.

    Both directions walk the schema's plan once.  :meth:`decode` reads
    exactly that shape through :func:`repro.encoding.der.read_header`;
    on any departure from it, :func:`_reject` re-reads the bytes with the
    generic :func:`repro.encoding.der.decode` to name the fault.
    """

    name = "v5"

    @staticmethod
    def encode(schema: Schema, values: Dict[str, Any]) -> bytes:
        schema.validate(values)
        if len(schema.plan) > 31:
            raise der.DerError("context tag number out of supported range")
        header = der.encode_header
        parts = []
        for name, kind, inner_tag, context_tag in schema.plan:
            value = values[name]
            if kind is FieldKind.UINT:
                # Non-negative, so this width is already minimal DER.
                body = value.to_bytes(value.bit_length() // 8 + 1, "big")
            elif kind is FieldKind.BYTES:
                body = bytes(value)
            else:
                body = value.encode("utf-8")
            size = len(body)
            if size < 0x7E:
                parts.append(bytes((context_tag, size + 2, inner_tag, size)) + body)
            else:
                inner = header(inner_tag, size) + body
                parts.append(header(context_tag, len(inner)) + inner)
        if not 0 <= schema.type_code < 31:
            raise der.DerError("application tag number out of supported range")
        content = b"".join(parts)
        sequence = header(0x30, len(content)) + content
        return header(0x60 | schema.type_code, len(sequence)) + sequence

    @staticmethod
    def decode(schema: Schema, data: bytes) -> Dict[str, Any]:
        read = der.read_header
        size = len(data)
        values: Dict[str, Any] = {}
        try:
            tag, offset, end = read(data)
            if tag != 0x60 | schema.type_code or end != size:
                raise CodecError
            tag, offset, end = read(data, offset)
            if tag != 0x30 or end != size:
                raise CodecError
            for name, kind, inner_tag, context_tag in schema.plan:
                tag, offset, end = read(data, offset)
                if tag != context_tag:
                    raise CodecError
                tag, offset, stop = read(data, offset)
                if tag != inner_tag or stop != end:
                    raise CodecError
                body = data[offset:stop]
                if kind is FieldKind.UINT:
                    # Minimal and non-negative: the sign bit is clear and a
                    # leading zero octet only ever precedes a set top bit.
                    if not body or body[0] & 0x80 or (
                        len(body) > 1 and not body[0] and not body[1] & 0x80
                    ):
                        raise CodecError
                    values[name] = int.from_bytes(body, "big")
                elif kind is FieldKind.BYTES:
                    values[name] = body
                else:
                    values[name] = body.decode("utf-8")
                offset = stop
            if offset != size:
                raise CodecError
            return values
        except (CodecError, der.DerError, UnicodeDecodeError):
            pass
        _reject(schema, data)


def _reject(schema: Schema, data: bytes) -> NoReturn:
    """Raise the error for bytes :meth:`V5Codec.decode` refused.

    The generic decoder reads the whole tree first, so any DER fault
    anywhere outranks a shape fault; then the shape is checked outside
    in.  Off the hot path: only rejected input comes here.
    """
    try:
        tag, body, end = der.decode(data)
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
    for (name, _, inner_tag, context_tag), (tag, inner) in zip(
        schema.plan, elements
    ):
        if tag != context_tag:
            raise CodecError(f"{schema.name}.{name}: bad context tag")
        if len(inner) != 1:
            raise CodecError(f"{schema.name}.{name}: bad wrapper")
        if inner[0][0] != inner_tag:
            raise CodecError(
                f"{schema.name}.{name}: type mismatch "
                f"(tag 0x{inner[0][0]:02x})"
            )
        if inner_tag == 0x02 and inner[0][1] < 0:
            raise CodecError(f"{schema.name}.{name}: negative uint")
    raise AssertionError(f"{schema.name}: V5 decode refused well-formed bytes")
