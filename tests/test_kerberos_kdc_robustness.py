"""KDC edge cases: rate limiting, malformed input, policy corners."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Testbed, ProtocolConfig
from repro.attacks import harvest_tickets
from repro.kerberos.kdc import AS_SERVICE, TGS_SERVICE
from repro.encoding import der
from repro.kerberos.messages import TGS_REQ, decode_error, unframe
from repro.kerberos.tickets import OPT_ENC_TKT_IN_SKEY, OPT_REUSE_SKEY
from repro.sim.network import Endpoint


def make_bed(config=None, seed=1):
    bed = Testbed(config if config is not None else ProtocolConfig.v4(),
                  seed=seed)
    bed.add_user("pat", "pw")
    bed.add_echo_server("echohost")
    return bed


# --- rate limiting -----------------------------------------------------------


def test_rate_limit_throttles_harvesting():
    config = ProtocolConfig.v4().but(as_rate_limit=3)
    bed = make_bed(config)
    for i in range(10):
        bed.add_user(f"user{i}", "pw%d" % i)
    harvested, result = harvest_tickets(
        bed, [f"user{i}" for i in range(10)]
    )
    # Only the first 3 requests within the minute get through.
    assert result.evidence["served"] == 3
    assert bed.realm.kdc.rate_limited == 7


def test_rate_limit_window_slides():
    config = ProtocolConfig.v4().but(as_rate_limit=2)
    bed = make_bed(config, seed=2)
    bed.add_user("u1", "x")
    bed.add_user("u2", "x")
    bed.add_user("u3", "x")
    first, _ = harvest_tickets(bed, ["u1", "u2", "u3"])
    assert len(first) == 2
    bed.advance_minutes(2)  # the window empties
    second, _ = harvest_tickets(bed, ["u3"])
    assert len(second) == 1


def test_rate_limit_does_not_affect_distinct_sources():
    """Per-source limiting: honest workstations are unaffected by the
    attacker exhausting their own budget."""
    config = ProtocolConfig.v4().but(as_rate_limit=2)
    bed = make_bed(config, seed=3)
    for i in range(4):
        bed.add_user(f"u{i}", "pw")
    harvest_tickets(bed, [f"u{i}" for i in range(4)])  # attacker throttled
    ws = bed.add_workstation("honest")
    outcome = bed.login("pat", "pw", ws)  # different source: fine
    assert outcome.credentials is not None


def test_honest_user_within_rate_limit_unaffected():
    config = ProtocolConfig.v4().but(as_rate_limit=5)
    bed = make_bed(config, seed=4)
    ws = bed.add_workstation("ws1")
    assert bed.login("pat", "pw", ws).credentials is not None


# --- malformed input never crashes, always errors ---------------------------


@given(junk=st.binary(max_size=120))
@settings(max_examples=60, deadline=None)
def test_as_endpoint_survives_fuzzing(junk):
    bed = make_bed(seed=5)
    kdc_address = bed.directory.kdc_address(bed.realm.name)
    reply = bed.network.inject(
        "10.6.6.6", Endpoint(kdc_address, AS_SERVICE), junk
    )
    is_error, _ = unframe(bed.config, reply)
    assert is_error  # typed error, not an exception or a ticket


@given(junk=st.binary(max_size=120))
@settings(max_examples=60, deadline=None)
def test_tgs_endpoint_survives_fuzzing(junk):
    bed = make_bed(seed=6)
    kdc_address = bed.directory.kdc_address(bed.realm.name)
    reply = bed.network.inject(
        "10.6.6.6", Endpoint(kdc_address, TGS_SERVICE), junk
    )
    is_error, _ = unframe(bed.config, reply)
    assert is_error


def test_deeply_nested_payload_gets_a_framed_error():
    """1,200 nested SEQUENCEs (4,629 bytes) once overflowed the DER
    decoder's recursion; both KDC endpoints now answer with a KRB_ERROR
    naming the nesting bound."""
    blob = b"\x30\x00"
    for _ in range(1199):
        blob = der.encode_sequence(blob)
    bed = make_bed(ProtocolConfig.v5_draft3(), seed=8)
    kdc_address = bed.directory.kdc_address(bed.realm.name)
    for service in (AS_SERVICE, TGS_SERVICE):
        reply = bed.network.inject(
            "10.6.6.6", Endpoint(kdc_address, service), blob
        )
        is_error, body = unframe(bed.config, reply)
        assert is_error
        assert "nested deeper than" in decode_error(bed.config, body)["text"]


@given(junk=st.binary(max_size=120))
@settings(max_examples=40, deadline=None)
def test_appserver_survives_fuzzing(junk):
    bed = make_bed(seed=7)
    echo = bed.servers["echo.echohost@ATHENA"]
    reply = bed.network.inject(
        "10.6.6.6", Endpoint(echo.host.address, "echo"), junk
    )
    assert reply[:1] == b"\x01"
    reply = bed.network.inject(
        "10.6.6.6", Endpoint(echo.host.address, "echo-data"), junk
    )
    assert reply[:1] == b"\x01"


# --- TGS policy corners -------------------------------------------------------


def _tgs_request(bed, overrides):
    """A syntactically valid TGS request with bad semantics."""
    config = bed.config
    ws = bed.add_workstation(f"wsx{bed._host_counter}")
    outcome = bed.login("pat", "pw", ws)
    tgt = outcome.client.ccache.tgt()
    values = {
        "server": "echo.echohost@ATHENA",
        "ticket_server": str(tgt.server),
        "ticket": tgt.sealed_ticket,
        "authenticator": b"",
        "options": 0,
        "additional_ticket": b"",
        "authorization_data": b"",
        "forward_address": "",
        "nonce": 1,
    }
    values.update(overrides)
    from repro.kerberos.tickets import Authenticator
    authenticator = Authenticator(
        client=outcome.client.user, address=ws.address,
        timestamp=bed.clock.now(),
    )
    if not values["authenticator"]:
        values["authenticator"] = authenticator.seal(
            tgt.session_key, config, bed.rng.fork("t")
        )
    kdc_address = bed.directory.kdc_address(bed.realm.name)
    reply = bed.network.inject(
        ws.address, Endpoint(kdc_address, TGS_SERVICE),
        config.codec.encode(TGS_REQ, values),
    )
    return unframe(config, reply)


def test_nontgs_ticket_server_rejected():
    bed = make_bed(seed=8)
    is_error, _ = _tgs_request(bed, {"ticket_server": "echo.echohost@ATHENA"})
    assert is_error


def test_unknown_ticket_server_rejected():
    bed = make_bed(seed=9)
    is_error, _ = _tgs_request(bed, {"ticket_server": "krbtgt.NOWHERE@ATHENA"})
    assert is_error


def test_garbage_ticket_rejected():
    bed = make_bed(seed=10)
    is_error, _ = _tgs_request(bed, {"ticket": b"\x00" * 64})
    assert is_error


def test_enc_tkt_in_skey_refused_by_v4():
    bed = make_bed(seed=11)
    is_error, _ = _tgs_request(bed, {"options": OPT_ENC_TKT_IN_SKEY})
    assert is_error


def test_reuse_skey_refused_by_v4():
    bed = make_bed(seed=12)
    is_error, _ = _tgs_request(bed, {"options": OPT_REUSE_SKEY})
    assert is_error


def test_service_ticket_lifetime_clamped_to_tgt():
    """A service ticket never outlives the TGT it came from."""
    bed = make_bed(seed=13)
    ws = bed.add_workstation("ws1")
    outcome = bed.login("pat", "pw", ws)
    bed.advance_minutes(400)  # deep into the TGT's 480-minute life
    echo = bed.servers["echo.echohost@ATHENA"]
    cred = outcome.client.get_service_ticket(echo.principal)
    tgt = outcome.client.ccache.tgt()
    assert cred.issued_at + cred.lifetime <= tgt.issued_at + tgt.lifetime


def test_bad_dh_public_value_rejected():
    config = ProtocolConfig.v4().but(dh_login=True, dh_modulus_bits=64)
    bed = Testbed(config, seed=14)
    bed.add_user("pat", "pw")
    from repro.kerberos.messages import AS_REQ
    kdc_address = bed.directory.kdc_address(bed.realm.name)
    request = config.codec.encode(AS_REQ, {
        "client": "pat@ATHENA", "server": "krbtgt.ATHENA@ATHENA",
        "nonce": 1, "flags_requested": 0, "preauth": b"",
        "dh_public": (0).to_bytes(8, "big"),  # out of range
    })
    reply = bed.network.inject(
        "10.0.0.9", Endpoint(kdc_address, AS_SERVICE), request
    )
    is_error, _ = unframe(config, reply)
    assert is_error
