"""Closed-form complexity values and their provenance records."""

import itertools
from fractions import Fraction

import pytest

import distnav.knowledge as knowledge
from distnav.bounds import LIVE_WITNESS_WORK, witness_work
from distnav.gcring import MAX_SERIES_DEGREE
from distnav.knowledge import (
    KIND_CERTIFICATE,
    KIND_CITED,
    REGISTRY,
    ComplexityRecord,
    ProvenanceEntry,
    record_to_jsonable,
    value_associate_upper,
    value_fadell_neuwirth,
    value_hopf,
    value_product_spheres,
    value_so3_bundle,
    value_son_threshold,
)
from distnav.presentations import fn_witness_length


# === configuration fibration ===


@pytest.mark.parametrize(
    "cell,expected",
    [((3, 2, 1, 2), 3), ((2, 2, 1, 2), 2), ((2, 3, 2, 3), 7), ((3, 3, 2, 3), 8)],
)
def test_fn_closed_form(cell, expected):
    rec = value_fadell_neuwirth(*cell)
    assert rec.exact == rec.lower == rec.upper == expected


def test_fn_desk_scale_recertifies():
    rec = value_fadell_neuwirth(2, 2, 1, 2)
    kinds = [p.kind for p in rec.provenance]
    assert kinds[0] == KIND_CERTIFICATE
    assert rec.provenance[0].certificate is not None
    assert rec.provenance[0].certificate.bound == rec.exact


def certificates(rec):
    return [p.certificate for p in rec.provenance if p.kind == KIND_CERTIFICATE]


def test_every_cell_of_the_first_box_stays_live():
    # The box d, m in {2, 3}, n in {1, 2}, r in {2, 3} was the live range
    # before the threshold, and its costliest cell sets it.
    box = list(itertools.product((2, 3), (2, 3), (1, 2), (2, 3)))
    assert LIVE_WITNESS_WORK == max(witness_work(*cell) for cell in box) == witness_work(2, 3, 2, 3) == 8736
    for cell in box:
        rec = value_fadell_neuwirth(*cell)
        assert [c.bound for c in certificates(rec)] == [rec.exact], cell


@pytest.mark.parametrize("cell, exact", [((4, 2, 1, 2), 2), ((4, 3, 2, 3), 7)])
def test_fn_cells_under_the_threshold_gain_a_certificate(cell, exact):
    # Cited only while the box decided; both certify in milliseconds.
    assert witness_work(*cell) <= LIVE_WITNESS_WORK
    rec = value_fadell_neuwirth(*cell)
    assert rec.exact == exact
    assert [c.bound for c in certificates(rec)] == [exact]
    assert rec.provenance[0].tag == "fiber-product-diagonal-kernel-witness"


def test_fn_out_of_scale_is_cited_only(monkeypatch):
    # (2,3,3,2) is over LIVE_WITNESS_WORK; (513,2,1,2) has a small work
    # estimate, but its witness degree 1536 is over MAX_SERIES_DEGREE, so
    # it is cited rather than refused.
    assert witness_work(2, 3, 3, 2) > LIVE_WITNESS_WORK
    assert fn_witness_length(513, 2, 1, 2) * 512 > MAX_SERIES_DEGREE
    monkeypatch.setattr(knowledge, "fn_fiber_product", lambda *args: pytest.fail("a ring was built"))
    for cell, exact in (((2, 3, 3, 2), 7), ((513, 2, 1, 2), 3)):
        rec = value_fadell_neuwirth(*cell)
        assert rec.exact == exact
        assert all(p.kind == KIND_CITED for p in rec.provenance)
        assert all(p.certificate is None for p in rec.provenance)


def test_fn_parameter_validation():
    for bad in [(1, 2, 1, 2), (2, 1, 1, 2), (2, 2, 0, 2), (2, 2, 1, 1)]:
        with pytest.raises(ValueError, match=r"^need d >= 2, m >= 2, n >= 1, r >= 2; got "):
            value_fadell_neuwirth(*bad)


# === rotation-group bundles ===


@pytest.mark.parametrize(
    "r,lower,upper", [(2, 1, 1), (3, 2, 3), (4, 3, 7), (5, 4, 11)]
)
def test_so3_bounds(r, lower, upper):
    rec = value_so3_bundle(r)
    assert (rec.lower, rec.upper) == (lower, upper)
    assert rec.extras["classical_sequential_value"] == 3 * (r - 1)
    assert rec.exact == (lower if lower == upper else None)


def test_so3_exact_only_at_two():
    assert value_so3_bundle(2).exact == 1
    for r in range(3, 8):
        assert value_so3_bundle(r).exact is None


def test_so3_upper_is_the_smaller_of_both_bounds():
    for r in range(2, 80):
        assert value_so3_bundle(r).upper == min(2 ** (r - 1) - 1, 2 * r + 1), r


def test_so3_beats_classical_everywhere():
    for r in range(2, 11):
        rec = value_so3_bundle(r)
        assert rec.upper < rec.extras["classical_sequential_value"]


# === sphere products ===


def test_spheres_antipodal_exact():
    rec = value_product_spheres([2, 4], 2)
    assert rec.exact == 2 * 1 + 2 == 4
    rec = value_product_spheres([1, 1, 1], 3)
    assert rec.exact == 3 * 2 + 0 == 6


def test_spheres_general_involution():
    rec = value_product_spheres([2, 2], 2, p_list=[2, 2])
    assert (rec.lower, rec.upper, rec.exact) == (4, 4, 4)  # all factors even
    rec = value_product_spheres([2, 3], 2, p_list=[2, 2])
    assert (rec.lower, rec.upper, rec.exact) == (3, 4, None)


def test_spheres_validation():
    with pytest.raises(ValueError):
        value_product_spheres([2, 3], 2, p_list=[1, 2])  # p below 2
    with pytest.raises(ValueError):
        value_product_spheres([2, 3], 2, p_list=[2, 5])  # p above n+1
    with pytest.raises(ValueError):
        value_product_spheres([2, 3], 2, p_list=[2])  # length mismatch
    with pytest.raises(ValueError):
        value_product_spheres([], 2)
    with pytest.raises(ValueError):
        value_product_spheres([2], 1)


# === scalar helpers ===


def test_associate_square_rule():
    assert value_associate_upper(0) == 0
    assert value_associate_upper(1) == 3
    assert value_associate_upper(2) == 8
    with pytest.raises(ValueError):
        value_associate_upper(-1)


def test_threshold_is_exact_rational():
    assert value_son_threshold(2) == 3
    assert value_son_threshold(3) == Fraction(15, 2)
    assert value_son_threshold(4) == 21
    assert isinstance(value_son_threshold(3), Fraction)
    with pytest.raises(ValueError):
        value_son_threshold(1)


def test_hopf_value():
    for r in (2, 3, 5):
        rec = value_hopf(r)
        assert rec.exact == r - 1
    with pytest.raises(ValueError):
        value_hopf(1)


# === provenance plumbing ===


def test_registry_covers_certificate_tags():
    assert "fiber-product-diagonal-kernel-witness" in REGISTRY
    assert "sphere-bundle-tower-witness" in REGISTRY
    assert all(isinstance(v, str) and v for v in REGISTRY.values())


def test_provenance_entry_validation():
    with pytest.raises(ValueError):
        ProvenanceEntry("no-such-tag")
    # The kind follows from the link: no entry claims a certificate it lacks.
    assert ProvenanceEntry("circle-fiber-value").kind == KIND_CITED
    cert = value_fadell_neuwirth(2, 2, 1, 2).provenance[0].certificate
    assert ProvenanceEntry(cert.provenance, cert).kind == KIND_CERTIFICATE


def test_record_ordering_validation():
    prov = (ProvenanceEntry("circle-fiber-value"),)
    with pytest.raises(ValueError):
        ComplexityRecord("x", {}, lower=3, upper=2, provenance=prov)
    with pytest.raises(ValueError):
        ComplexityRecord("x", {}, lower=1, upper=2, provenance=())
    # The exact value follows from the bounds, so it never leaves them.
    exact = [
        ComplexityRecord("x", {}, lower=lo, upper=hi, provenance=prov).exact
        for lo, hi in ((2, 2), (1, 2), (2, None), (None, 2), (None, None))
    ]
    assert exact == [2, None, None, None, None]


def test_record_jsonable_shape():
    data = record_to_jsonable(value_fadell_neuwirth(2, 2, 1, 2))
    assert data["family"] == "fadell-neuwirth"
    assert data["exact"] == 2
    tags = [p["tag"] for p in data["provenance"]]
    assert tags[0] == "fiber-product-diagonal-kernel-witness"
    assert "certificate" in data["provenance"][0]
    assert data["provenance"][0]["certificate"]["bound"] == 2
    data = record_to_jsonable(value_so3_bundle(4))
    assert data["extras"]["classical_sequential_value"] == 9
