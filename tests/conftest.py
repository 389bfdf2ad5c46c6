import pytest

from pollsim import CandidateSet, Preference
from pollsim.presets import consensual_loser_electorate, lr_cycle_electorate, two_bloc_electorate


@pytest.fixture(scope="session")
def abcd():
    return CandidateSet(("a", "b", "c", "d"))


@pytest.fixture(scope="session")
def abc():
    return CandidateSet(("a", "b", "c"))


@pytest.fixture(scope="session")
def cycle_electorate():
    return lr_cycle_electorate()


@pytest.fixture(scope="session")
def loser_electorate():
    return consensual_loser_electorate()


@pytest.fixture(scope="session")
def bloc_electorate():
    return two_bloc_electorate()


def pref(candidates: CandidateSet, text: str) -> Preference:
    return Preference.from_notation(candidates, text)
