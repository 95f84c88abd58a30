"""Inputs over the caps in hcn7.cli are usage errors raised before any
table, sieve or coefficient list is allocated.

Every builder a capped command would reach is replaced by one that fails
the test, and each command is run one past its cap; no test allocates at
the cap itself.
"""

import pytest

import hcn7.cli
import hcn7.hurwitz
import hcn7.newform49
import hcn7.verify
from hcn7.cli import MAX_H_INDEX, MAX_NEWFORM_N, main


@pytest.fixture
def no_allocation(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("allocated past the cap")

    for module, name in [
        (hcn7.cli, "twelfths_upto"),
        (hcn7.cli, "hurwitz_single"),
        (hcn7.hurwitz, "twelfths_upto"),
        (hcn7.verify, "hmm_product"),
        (hcn7.cli, "newform_an"),
        (hcn7.newform49, "newform_an"),
        (hcn7.verify, "primes_up_to"),
        (hcn7.newform49, "primes_up_to"),
    ]:
        monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["hurwitz", "--max", str(MAX_H_INDEX + 1)], "MAX_H_INDEX"),
        (["sum", "--m", "0", "--M", "7", "--n", str(MAX_H_INDEX // 4 + 1)], "MAX_H_INDEX"),
        (["table", "--pmax", str(MAX_H_INDEX // 4 + 1)], "MAX_H_INDEX"),
        (["newform", "--nmax", str(MAX_NEWFORM_N + 1)], "MAX_NEWFORM_N"),
        (["newform", "--nmax", str(MAX_NEWFORM_N + 1), "--method", "cm"], "MAX_NEWFORM_N"),
        (["newform", "--nmax", str(MAX_NEWFORM_N + 1), "--method", "cross"], "MAX_NEWFORM_N"),
        (["series", "H", "--order", str(MAX_NEWFORM_N + 1)], "MAX_NEWFORM_N"),
        (["series", "G", "--order", str(MAX_NEWFORM_N + 1)], "MAX_NEWFORM_N"),
        (["hurwitz", str(MAX_H_INDEX + 1)], "MAX_H_INDEX"),
    ],
)
def test_over_the_cap_is_a_usage_error(no_allocation, capsys, argv, cap):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert cap in err


def test_caps_admit_the_paper_scale_targets():
    # `table --pmax 10**6` and `newform --nmax 10**6` stay admissible
    assert 4 * 10**6 <= MAX_H_INDEX
    assert 10**6 <= MAX_NEWFORM_N
