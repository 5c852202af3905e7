"""Property test: no flap train can beat the skeptic's hold-downs.

Section 2's claim is quantitative at heart: escalating probations make
the number of *published* verdict changes logarithmic in time, no
matter how adversarially the link flaps.  Hypothesis searches the space
of flap trains (failure / recovery / tick sequences with arbitrary
spacing) for one that publishes more changes than
``max_verdict_changes`` allows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reconfig.skeptic import Skeptic
from repro.faults.invariants import max_verdict_changes

BASE_WAIT_US = 2_000.0
MAX_LEVEL = 6
DECAY_US = 500_000.0

# One adversarial move: wait dt, then poke the skeptic somehow.  The
# adversary controls timing to the microsecond, including ticking at
# exactly a probation boundary and failing immediately after.
moves = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50_000.0,
                  allow_nan=False, allow_infinity=False),
        st.sampled_from(["fail", "recover", "tick"]),
    ),
    min_size=1,
    max_size=200,
)


def drive(skeptic: Skeptic, train) -> float:
    now = 0.0
    for dt, action in train:
        now += dt
        # The owner always ticks before delivering a report, like the
        # monitor does; this lets probations complete on time.
        skeptic.tick(now)
        if action == "fail":
            skeptic.report_failure(now)
        elif action == "recover":
            skeptic.report_recovery(now)
    skeptic.tick(now)
    return now


@settings(max_examples=300, deadline=None)
@given(train=moves)
def test_verdict_changes_bounded_under_any_flap_train(train):
    skeptic = Skeptic(
        base_wait_us=BASE_WAIT_US,
        max_level=MAX_LEVEL,
        decay_interval_us=DECAY_US,
    )
    duration = drive(skeptic, train)
    bound = max_verdict_changes(duration, BASE_WAIT_US, MAX_LEVEL, DECAY_US)
    assert len(skeptic.verdict_changes) <= bound, (
        f"{len(skeptic.verdict_changes)} verdict changes in {duration}us "
        f"beats bound {bound}"
    )


@settings(max_examples=100, deadline=None)
@given(train=moves, data=st.data())
def test_probation_always_escalates_after_probation_failure(train, data):
    """Whatever history came before, failing during probation must not
    shorten the next probation (monotone hold-downs, capped)."""
    skeptic = Skeptic(base_wait_us=BASE_WAIT_US, max_level=MAX_LEVEL,
                      decay_interval_us=0.0)  # no decay: pure escalation
    now = drive(skeptic, train)
    before = skeptic.current_wait()
    skeptic.report_recovery(now)          # ensure we can be in probation
    skeptic.report_failure(now + 1.0)     # flap inside probation
    assert skeptic.current_wait() >= before
    assert skeptic.current_wait() <= BASE_WAIT_US * 2**MAX_LEVEL


def test_worst_case_periodic_flapper_stays_under_bound():
    """The canonical adversary: recover instantly, fail the instant the
    probation promotes the link.  This maximizes published changes."""
    skeptic = Skeptic(base_wait_us=BASE_WAIT_US, max_level=MAX_LEVEL,
                      decay_interval_us=0.0)
    now = 0.0
    skeptic.report_failure(now)
    for _ in range(40):
        skeptic.report_recovery(now)
        now += skeptic.current_wait()
        skeptic.tick(now)          # promotes to WORKING
        skeptic.report_failure(now)  # immediately kill it again
    bound = max_verdict_changes(now, BASE_WAIT_US, MAX_LEVEL)
    assert len(skeptic.verdict_changes) <= bound
