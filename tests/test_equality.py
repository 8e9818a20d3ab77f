"""The columnar equality check (smooth.maps_equal and the relations built on
it) against the point-at-a-time reference in reference_equality.py."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faadibruno.config import RunConfig
from faadibruno.expr import GuardAtom, const, make_guard, parse_expression
from faadibruno.smooth import (
    BATCH_SIZE,
    PointStream,
    SmoothMap,
    SpaceObject,
    TERMINAL,
    map_leq,
    maps_compatible,
    maps_equal,
    probe_points,
    restrict_map,
)

from reference_equality import (
    reference_map_leq,
    reference_maps_compatible,
    reference_maps_equal,
)

RELATIONS = [(maps_equal, reference_maps_equal), (map_leq, reference_map_leq),
             (maps_compatible, reference_maps_compatible)]

# Coordinates over x1, x2, each with a twin that takes the same values
# through other nodes.  Maps are built without the guards parsing would
# imply, so quotients, logs and square roots fault where those guards fail.
TWINS = {
    "x1*x2": "x2*x1",
    "sin(x1) + x2": "x2 + sin(x1)",
    "x1^2 - x2": "x1*x1 - x2",
    "1/x1": "x2/(x1*x2)",  # faults at the probes on either axis
    "log(x1) + x2": "x2 + log(x1)",
    "sqrt(x2)*x1": "x1*sqrt(x2)",
    "exp(x1^10)": "exp(x1^5*x1^5)",  # overflows where |x1| > 1.93
    "exp(400*x1)*exp(400*x2)": "exp(400*x2)*exp(400*x1)",  # inf where x1 + x2 > 1.78
    # inf or NaN where x1 > 0.89
    "exp(400*x1)*exp(400*x1) - exp(400*x2)*exp(401*x1)":
        "exp(400*x1)*exp(400*x1) - exp(401*x1)*exp(400*x2)",
    # more than tol_rel from x1 only where x2 > 1.98, about one point in 200
    "x1 + 0.001*exp(1000*(x2 - 1.99))": "x1",
}
ATOMS = [GuardAtom(op, parse_expression(text)) for op, text in [
    (">0", "x1"), (">0", "x1 - 0.5"), (">0", "x1 - 0.6"), ("!=0", "x2"),
    (">0", "x1 - 1.9"), (">0", "x1*x2 - 1"), ("!=0", "x1 - 1"), ("!=0", "x1 + 1")]]
PLANE = SpaceObject(2)


def gmap(coords, atoms=(), dom=PLANE):
    return SmoothMap(dom, SpaceObject(len(coords)),
                     tuple(parse_expression(c) if isinstance(c, str) else c for c in coords),
                     make_guard(atoms))


def key(out):
    """Everything an outcome reports, floats as their exact hex form."""
    witness = None if out.witness is None else tuple(map(float.hex, out.witness))
    return out.status, out.worst_residual.hex(), witness, out.note, out.samples


def assert_matches_reference(f, g, cfg, label):
    for relation, reference in RELATIONS:
        assert key(relation(f, g, cfg, label)) == key(reference(f, g, cfg, label)), relation


@st.composite
def guarded_pairs(draw):
    cod = draw(st.integers(0, 2))
    texts = draw(st.lists(st.sampled_from(sorted(TWINS)), min_size=cod, max_size=cod))
    atoms = draw(st.lists(st.sampled_from(ATOMS), max_size=2))
    f = gmap(texts, atoms)
    how = draw(st.sampled_from(["same", "twin", "restricted", "other"]))
    if how == "same":
        return f, f
    if how == "twin":
        return f, gmap([TWINS[t] for t in texts], atoms)
    if how == "restricted":
        return f, restrict_map(f, make_guard(draw(st.lists(st.sampled_from(ATOMS),
                                                           min_size=1, max_size=2))))
    other = draw(st.lists(st.sampled_from(sorted(TWINS.values())), min_size=cod, max_size=cod))
    return f, gmap(other, draw(st.lists(st.sampled_from(ATOMS), max_size=2)))


CONFIGS = st.builds(
    RunConfig,
    seed=st.integers(0, 2**31 - 1),
    samples=st.sampled_from([1, 40, BATCH_SIZE, 300]),
    radius=st.sampled_from([0.5, 1.5, 2.0]),
    retry_cap=st.sampled_from([60, 10_000]))


@given(guarded_pairs(), CONFIGS, st.sampled_from(["eq", "jet.R.2", "leq-α"]))
def test_column_path_matches_the_point_at_a_time_reference(pair, cfg, label):
    f, g = pair
    assert_matches_reference(f, g, cfg, label)
    assert_matches_reference(f, f, cfg, label)
    # a map against itself draws from the map stream of its dimension, so
    # another label gives the same outcome
    assert key(maps_equal(f, f, cfg, label)) == key(reference_maps_equal(f, f, cfg, "other"))


CASES = {
    "fault at a probe": (gmap(["1/x1"]), gmap(["1/x1"]), RunConfig(), "fail",
                         "eval fault: division by zero"),
    "overflow in exp": (gmap(["exp(x1^10)"]), gmap(["exp(x1^5*x1^5)"]), RunConfig(),
                        "fail", "eval fault: overflow in exp"),
    # on the radius-1.5 box exp does not overflow, so only the value is non-finite
    "inf on one map": (gmap(["exp(400*x1)*exp(400*x2)"]),) * 2 + (RunConfig(radius=1.5),
                                                                  "fail", "value mismatch"),
    "inf on two maps": (gmap(["exp(400*x1)*exp(400*x2)"]), gmap(["exp(400*x2)*exp(400*x1)"]),
                        RunConfig(radius=1.5), "fail", "value mismatch"),
    "NaN": (gmap(["exp(400*x1)*exp(400*x1) - exp(400*x2)*exp(401*x1)"]),) * 2
    + (RunConfig(radius=1.5), "fail", "value mismatch"),
    "guard mismatch at a probe": (gmap(["x1"], ATOMS[6:7]), gmap(["x1"]), RunConfig(), "fail",
                                  "guard mismatch"),
    # each guard fails at two probes, so both sides keep as many rows, and
    # with the same values
    "guard mismatch in rows of one count": (gmap([const(1)], ATOMS[6:7]),
                                            gmap([const(1)], ATOMS[7:8]), RunConfig(), "fail",
                                            "guard mismatch"),
    "guard mismatch off the probes": (gmap(["x1"], ATOMS[1:2]), gmap(["x1"], ATOMS[2:3]),
                                      RunConfig(), "fail", "guard mismatch"),
    "starvation": (gmap(["x1*x2"], ATOMS[4:5]), gmap(["x2*x1"], ATOMS[4:5]),
                   RunConfig(retry_cap=200), "starved", "sampling starvation"),
    "pass": (gmap(["x1*x2", "sin(x1) + x2"], ATOMS[:1]),
             gmap(["x2*x1", "x2 + sin(x1)"], ATOMS[:1]), RunConfig(samples=300), "pass", ""),
    "dim 0": (gmap([const(1)], dom=TERMINAL), gmap([const(2)], dom=TERMINAL), RunConfig(),
              "fail", "value mismatch"),
}


@pytest.mark.parametrize("name", CASES)
def test_column_path_matches_the_reference_on_each_deciding_event(name):
    f, g, cfg, status, note = CASES[name]
    want = reference_maps_equal(f, g, cfg, "event")
    assert (want.status, want.note) == (status, note)
    assert_matches_reference(f, g, cfg, "event")


def test_a_mismatch_first_met_after_the_first_batch_matches_the_reference():
    f, g = gmap(["x1 + 0.001*exp(1000*(x2 - 1.99))"]), gmap(["x1"])
    cfg = RunConfig(samples=300)
    want = reference_maps_equal(f, g, cfg, "late-2")
    # the probes, then a full batch, pass before the mismatch
    assert want.status == "fail" and want.samples > len(probe_points(2)) + BATCH_SIZE
    assert_matches_reference(f, g, cfg, "late-2")


@pytest.mark.parametrize("samples", [1, 2, 3, 5])
def test_a_check_the_probes_could_meet_passes_only_past_them(samples):
    # every probe off the diagonal has a zero coordinate, so x1*x2 reads 0
    # there; the diagonal probe (1, 1) decides the check
    f, g = gmap(["x1*x2"]), gmap([const(0)])
    cfg = RunConfig(samples=samples)
    out = maps_equal(f, g, cfg, "probes-only")
    assert (out.status, out.witness, out.note) == ("fail", (1.0, 1.0), "value mismatch")
    assert_matches_reference(f, g, cfg, "probes-only")
    same = maps_equal(f, f, cfg, "probes-only")
    assert same.status == "pass" and same.samples == len(probe_points(2)) + 1


@pytest.mark.parametrize("twin", [False, True])
def test_a_guard_rejecting_half_the_points_takes_its_samples_in_few_batches(
        twin, monkeypatch):
    taken = []
    take = PointStream.take

    def counting(stream, k):
        n, cols = take(stream, k)
        taken.append(n)
        return n, cols

    monkeypatch.setattr(PointStream, "take", counting)
    # x1 > 0 rejects about half the points; 2a and a + a are equal in floats
    f = gmap(["2*x1*x2"], ATOMS[:1])
    g = gmap(["x1*x2 + x1*x2"], ATOMS[:1]) if twin else f
    cfg = RunConfig(samples=200)
    out = maps_equal(f, g, cfg, "half")
    assert out.status == "pass" and out.samples == 200
    # differing sides run the probes alone first; identical sides run them
    # in the first batch.  A loop taking only the points still needed runs
    # 10 batches here on identical sides and 11 on differing ones.
    after_probes = taken[1:] if twin else taken
    assert twin == (taken[0] == len(probe_points(2)))
    assert len(after_probes) <= 3
    assert key(out) == key(reference_maps_equal(f, g, cfg, "half"))
    if not twin:  # the map keeps its outcome: another row takes no points
        batches = len(taken)
        assert maps_equal(f, gmap(["2*x1*x2"], ATOMS[:1]), cfg, "other") is out
        assert len(taken) == batches
