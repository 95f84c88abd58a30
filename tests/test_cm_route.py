"""The CM route to the newform coefficients: every a_p for odd p from the
representation p = x^2 + 7y^2, with no point counting."""

import hcn7.newform49 as nf
from hcn7.cli import main


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
    assert [p for p in counted if p != 2] == []
    assert capsys.readouterr().out.strip() == ",".join(map(str, cm.coeffs[1:]))
    assert cm == nf.newform_an(500)
    assert len(counted) > 90  # the default route does count
