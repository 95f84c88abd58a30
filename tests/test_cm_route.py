"""The CM route to the newform coefficients: every a_p from the
representation 4p = X^2 + 7Y^2, with no point counting."""

import hcn7.newform49 as nf
from hcn7.cli import main
from hcn7.primes import primes_up_to


def test_cm_method_matches_ec_method(capsys):
    outputs = []
    for method in ("ec", "cm"):
        assert main(["newform", "--nmax", "2000", "--method", method]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cm_route_counts_no_odd_prime(monkeypatch, capsys):
    counted = []
    count = nf.ec_point_count

    def counting(p):
        counted.append(p)
        return count(p)

    monkeypatch.setattr(nf, "ec_point_count", counting)
    # a cold a_p cache, so that values counted earlier hide nothing
    monkeypatch.setattr(nf, "_ap_cache", {7: 0})
    cm = nf.newform_an(500, nf.cm_aps)
    assert main(["newform", "--nmax", "500", "--method", "cm"]) == 0
    assert counted == []
    assert capsys.readouterr().out.strip() == ",".join(map(str, cm.coeffs[1:]))
    assert cm == nf.newform_an(500)
    assert len(counted) > 90  # the default route does count


def test_cm_route_reads_nothing_of_the_point_count(monkeypatch):
    primes = primes_up_to(10**4)
    want = nf.ec_aps(primes)

    def forbidden(*args):
        raise AssertionError("the CM route reached the point count")

    for name in ("ec_aps", "ec_point_count", "_split_map", "_scan_count", "_bsgs_count"):
        monkeypatch.setattr(nf, name, forbidden)
    assert nf.cm_aps(primes) == want
