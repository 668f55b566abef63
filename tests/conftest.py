"""Checks that run under every test in this directory."""

import pytest

from pdeg import polyalg
from pdeg.polyalg import SymPoly

# Captured at import, so a test that counts _tabulate calls through its own
# patch does not see this check's calls.
_TABULATE = SymPoly._tabulate


@pytest.fixture(autouse=True)
def seeded_tables_match_coefficients(monkeypatch):
    """Every table polyalg._seeded sets equals the table _tabulate builds
    from the polynomial's coefficients, element types included.  Scoring
    reads only tables and degrees read only coefficients, so a wrong
    coefficient under a right seeded table would otherwise pass unseen.
    A test that seeds the same all-int table on the same coefficients again
    is checked once."""
    seeded = polyalg._seeded
    passed = set()

    def checked(poly, values):
        poly = seeded(poly, values)
        table = poly._table
        key = (poly.field, poly.coeffs, table)
        ints = set(map(type, table)) == {int}
        if not (ints and key in passed):
            want = _TABULATE(poly, len(table) - 1)
            assert table == want and [*map(type, table)] == [*map(type, want)], poly
            if ints:
                passed.add(key)
        return poly

    monkeypatch.setattr(polyalg, "_seeded", checked)
