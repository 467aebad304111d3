"""Keep the docstring examples executable."""

import doctest

import permlab.enumeration
import permlab.perms
import permlab.series


def test_perms_doctests():
    failures, tested = doctest.testmod(permlab.perms)
    assert tested > 0
    assert failures == 0


def test_enumeration_doctests():
    failures, tested = doctest.testmod(permlab.enumeration)
    assert tested > 0
    assert failures == 0


def test_series_doctests():
    failures, tested = doctest.testmod(permlab.series)
    assert tested > 0
    assert failures == 0
