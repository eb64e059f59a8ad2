"""Cross-checks between the analytic computations and the brute-force
enumeration oracles over the prime fields.

The oracles scan entire candidate spaces, so the algebras here are kept
tiny; the point is exactness of the counts, not coverage of shapes."""

import numpy as np
import pytest

from defalg import GF, _kernels, cotangent, deformation, oracle, reports
from defalg.algebras import FiniteModule, PresentedAlgebra, StructureAlgebra, validate
from defalg.budget import BudgetExceeded, EnumerationBudget
from defalg.cotangent import t_modules
from defalg.deformation import (
    BaseDeformationProblem,
    ExtensionStack,
    LiftProblem,
    RealizedDeformation,
    SquareZeroExtension,
    classify_extensions,
    lift_homomorphism,
    obstruction_class,
    realize_deformation,
)
from defalg.differential import derivation_space
from defalg.linalg import Matrix
from defalg.oracle import (
    check_torsor_action,
    enumerate_deformations,
    enumerate_derivations,
    enumerate_extensions,
    enumerate_lifts,
    state_of_table,
)
from defalg.corpus import deformation_problem_set, lift_problem_set, run_suite, showcase_problem_set
from defalg.problems import LiftSpec, load_problem_file, parse_polynomial

from .conftest import dual_numbers, fat_point, make_algebra


def _solvable_lift(field):
    B = dual_numbers(field)
    Cp = make_algebra(field, ["w", "e"], ["w^2", "w*e", "e^2"])
    ideal = [parse_polynomial("e", Cp.names, field)]
    phi = [parse_polynomial("w", Cp.names, field)]
    return LiftProblem.from_presented(B, Cp, ideal, phi)


def _unsolvable_lift(field):
    B = dual_numbers(field)
    Cp = make_algebra(field, ["w"], ["w^4"])
    ideal = [parse_polynomial("w^2", Cp.names, field)]
    phi = [parse_polynomial("w", Cp.names, field)]
    return LiftProblem.from_presented(B, Cp, ideal, phi)


def _base_problem(field, gens, relations):
    B = make_algebra(field, gens, relations, base_gens=["s"], base_relations=["s^2"])
    J = FiniteModule.trivial(B)
    Ap = make_algebra(field, ["s"], ["s^3"])
    gen = parse_polynomial("s^2", ("s",), field)
    return BaseDeformationProblem.from_presented_total(B, J, Ap, [gen])


class TestDerivationScan:
    def test_count_is_a_power_of_the_characteristic(self, prime_field):
        B = fat_point(prime_field)
        J = FiniteModule.trivial(B)
        ders = enumerate_derivations(B, J)
        t0 = t_modules(B, J)[0].dim
        assert t0 == 2
        assert ders.count == prime_field.p**t0
        assert ders.candidates == prime_field.p ** (B.dim() * J.rank)

    def test_regular_module_depends_on_the_characteristic(self):
        for field, expect in ((GF(2), 2), (GF(3), 3)):
            B = make_algebra(field, ["x"], ["x^3"])
            J = FiniteModule.regular(B)
            ders = enumerate_derivations(B, J)
            assert ders.count == field.p**expect
            assert derivation_space(B, J).dim == expect

    def test_survivors_are_honest_derivations(self, prime_field):
        B = fat_point(prime_field)
        J = FiniteModule.trivial(B)
        ders = enumerate_derivations(B, J)
        x, y = B.var(0), B.var(1)
        for k in range(ders.count):
            D = ders.to_derivation(k)
            lhs = D.apply(x * y)
            assert all(prime_field.is_zero(c) for c in lhs)


class TestExtensionScan:
    def test_class_count_matches_the_analytic_classification(self):
        field = GF(2)
        B = fat_point(field)
        J = FiniteModule.trivial(B)
        scan = enumerate_extensions(B, J)
        cl = classify_extensions(B, J)
        assert scan.class_count == cl.count == 8
        # every candidate table is associative here and the section
        # changes act trivially, so states and classes coincide
        assert scan.count == 8
        assert scan.count % scan.class_count == 0

    def test_class_count_over_f3(self):
        field = GF(3)
        B = dual_numbers(field)
        J = FiniteModule.trivial(B)
        scan = enumerate_extensions(B, J)
        assert scan.class_count == 3 == field.p ** t_modules(B, J)[1].dim

    def test_states_round_trip_through_tables(self):
        field = GF(2)
        B = fat_point(field)
        J = FiniteModule.trivial(B)
        scan = enumerate_extensions(B, J)
        for state in scan.states:
            ext = scan.table_of(state)
            assert scan.state_of(ext) == state
            assert validate(ext.table) == [] and ExtensionStack.of([ext]).section_findings() == [[]]

    def test_every_analytic_class_appears_once_in_the_scan(self):
        field = GF(2)
        B = fat_point(field)
        J = FiniteModule.trivial(B)
        scan = enumerate_extensions(B, J)
        cl = classify_extensions(B, J)
        seen = [scan.class_of(scan.state_of(rep)) for rep in cl.representatives]
        assert sorted(seen) == list(range(scan.class_count))


class TestLiftScan:
    def test_solvable_problem_counts_agree(self, prime_field):
        prob = _solvable_lift(prime_field)
        lifts = enumerate_lifts(prob)
        res = lift_homomorphism(prob)
        assert res.solvable
        assert lifts.count == res.count == prime_field.p
        ders = enumerate_derivations(prob.B, prob.J)
        assert ders.count == lifts.count
        check = check_torsor_action(lifts, ders)
        assert check.ok and not check.empty
        assert "torsor" in check.message

    def test_unsolvable_problem_has_no_lifts(self, prime_field):
        prob = _unsolvable_lift(prime_field)
        lifts = enumerate_lifts(prob)
        assert lifts.count == 0
        assert not lift_homomorphism(prob).solvable
        check = check_torsor_action(lifts, enumerate_derivations(prob.B, prob.J))
        assert check.ok and check.empty

    def test_analytic_lifts_appear_in_the_scan(self, prime_field):
        prob = _solvable_lift(prime_field)
        res = lift_homomorphism(prob)
        lifts = enumerate_lifts(prob)
        assert res.lifted_images in set(lifts.images)


class TestDeformationScan:
    def test_unobstructed_scan_is_nonempty(self, prime_field):
        prob = _base_problem(prime_field, ["x"], ["x^2 - s"])
        scan = enumerate_deformations(prob)
        res = obstruction_class(prob)
        assert scan.solvable and not res.obstructed
        t1 = t_modules(prob.B, prob.J)[1].dim
        assert scan.class_count == prime_field.p**t1
        assert scan.count % scan.class_count == 0

    def test_obstructed_scan_is_empty(self):
        prob = _base_problem(GF(2), ["x", "y"], ["x^2 + s", "x*y", "y^2 + s"])
        scan = enumerate_deformations(prob)
        res = obstruction_class(prob)
        assert res.obstructed
        assert not scan.solvable and scan.count == 0 and scan.class_count == 0

    def test_realizations_land_in_the_scan(self, prime_field):
        prob = _base_problem(prime_field, ["x"], ["x^2 - s"])
        scan = enumerate_deformations(prob)
        res = obstruction_class(prob)
        _, r1, _ = t_modules(prob.B, prob.J)
        assert r1.dim == 1
        hit = set()
        for c in range(prime_field.p):
            twist = [prime_field.mul(prime_field.from_int(c), v) for v in r1.reps[0]]
            real = realize_deformation(prob, result=res, twist=twist)
            state = scan.state_of(real)
            assert state in set(scan.states)
            hit.add(scan.class_of(state))
        assert len(hit) == prime_field.p, "twists along a basis class reach every class"

    @pytest.mark.parametrize("field", ["F2", "F3"])
    @pytest.mark.parametrize("name", ["ci_xsq", "fat.dual"])
    def test_states_round_trip_through_tables(self, field, name):
        ps = load_problem_file(deformation_problem_set(field))
        spec = next(e for e in ps.problems if e.name == name)
        prob = reports._build_deform_problem(ps, spec)
        B, J = prob.B, prob.J
        scan = enumerate_deformations(prob)
        assert any(any(eta) for _, eta in scan.states)
        targets = [[0] * B.dim() + prob.phi.mul_vec(list(a)) for a in prob.alpha]
        for state in scan.states:
            tab = scan.table_of(state)
            # one form with realize_deformation: eta sits in the table's own base images
            assert state_of_table(B, tab) == state
            assert scan.state_of(RealizedDeformation(prob, (), tab, ())) == state
            assert validate(tab) == []
            assert ExtensionStack.of([SquareZeroExtension(B, J, tab)]).section_findings() == [[]]
            yimgs = tab.gen_images[: B.n_base]
            assert tab.evaluate_many(B.base_algebra().relations, yimgs).tolist() == targets


class TestBudgets:
    def test_charge_happens_before_the_scan(self):
        field = GF(2)
        B = fat_point(field)
        J = FiniteModule.regular(B)
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_derivations(B, J, budget=100)
        assert exc.value.needed == field.p ** (B.dim() * J.rank)
        assert exc.value.limit == 100

    def test_budget_tracks_spending_per_scan(self):
        # the limit bounds each single scan; spent keeps the running sum
        field = GF(2)
        B = fat_point(field)
        J = FiniteModule.trivial(B)
        bud = EnumerationBudget(12)
        enumerate_derivations(B, J, budget=bud)
        enumerate_derivations(B, J, budget=bud)
        assert bud.spent == 16
        with pytest.raises(BudgetExceeded):
            bud.charge(13, "one more scan")

    def test_deformation_scan_respects_the_budget(self):
        prob = _base_problem(GF(2), ["x", "y"], ["x^2 + s", "x*y", "y^2 + s"])
        with pytest.raises(BudgetExceeded):
            enumerate_deformations(prob, budget=32)

    @pytest.mark.parametrize("field", ["F2", "F3"])
    def test_the_base_scan_charge_comes_before_any_enumeration(self, field, monkeypatch):
        # fat.dual: its base scan charge (p^3 tables times p base images)
        # exceeds its table charge, so a budget one below it passes the
        # table scan and refuses there
        ps = load_problem_file(deformation_problem_set(field))
        spec = next(e for e in ps.problems if e.name == "fat.dual")
        prob = reports._build_deform_problem(ps, spec)
        B, J, p = prob.B, prob.J, prob.B.field.p
        S, mul, act = oracle._structure_context(B, J)
        R_assoc = _kernels._assoc_residual(mul, act, *oracle._pairs(S.dim))
        # what the scan charged when it enumerated the table survivors first
        old = len(_kernels.solve_affine(R_assoc, 0, p)) * p ** (J.rank * B.n_base)
        charges = []

        class Recording(EnumerationBudget):
            def charge(self, n, what="enumeration"):
                charges.append((n, what))
                super().charge(n, what)

        enumerate_deformations(prob, budget=Recording(old))
        assert charges[-1] == (old, "deformation base scan") and charges[0][0] < old

        def refused(*args, **kwargs):
            raise AssertionError("enumerated before the charge")

        monkeypatch.setattr(oracle._kernels, "solve_affine", refused)
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_deformations(prob, budget=old - 1)
        assert (exc.value.needed, exc.value.what) == (old, "deformation base scan")

    def test_oracles_refuse_the_rationals(self):
        from defalg import QQ

        B = dual_numbers(QQ)
        J = FiniteModule.trivial(B)
        with pytest.raises(TypeError, match="prime"):
            enumerate_derivations(B, J)


# ---------------------------------------------------------------------------
# the scans against literal per-candidate loops


def _digits(n, ndig, p):
    return tuple((n // p**k) % p for k in range(ndig))


def literal_structures(B, J, targets):
    """(states, spent) of a structure scan by the literal loop: every
    symmetric fiber-correction table checked for associativity, then
    every base image of every associative table checked against the
    targets, charging what the scan charges."""
    p = B.field.p
    S = B.to_structure()
    act = J.basis_action_tensor(S)
    s, t = S.dim, J.rank
    pairs = [(i, j) for i in range(1, s) for j in range(i, s)]
    nc, nbv = len(pairs) * t, B.n_base
    neta = nbv * t
    base = [[int(c) for c in v] for v in S.base_images]
    want = [[0] * s + [int(c) % p for c in tv] for tv in targets]
    gs = B.base_algebra().relations
    spent = p**nc
    tables = []
    for n in range(p**nc):
        cd = _digits(n, nc, p)
        mul = np.zeros((s + t,) * 3, np.int64)
        mul[:s, :s, :s] = S.mul
        mul[:s, s:, s:] = act.transpose(0, 2, 1)
        mul[s:, :s, s:] = act.transpose(2, 0, 1)
        for q, (i, j) in enumerate(pairs):
            mul[i, j, s:] = mul[j, i, s:] = cd[q * t : (q + 1) * t]
        lhs = np.einsum("abm,mcn->abcn", mul, mul) % p
        rhs = np.einsum("bcm,amn->abcn", mul, mul) % p
        if np.array_equal(lhs, rhs):
            tables.append((cd, StructureAlgebra(B.field, [str(k) for k in range(s + t)], mul)))
    if nbv:
        spent += len(tables) * p**neta
    states = []
    for cd, tab in tables:
        for m in range(p**neta):
            eta = _digits(m, neta, p)
            yimgs = [base[v] + list(eta[v * t : (v + 1) * t]) for v in range(nbv)]
            if all(tab.evaluate(g, yimgs) == w for g, w in zip(gs, want)):
                states.append((cd, eta))
    return tuple(states), spent


def literal_orbits(B, J, states):
    """(orbit_reps, orbit_of) of a structure scan by the literal loop:
    every elementary section change (one basis element of B to one of
    J) applied to every state, the orbits closed by union-find, each
    represented by its lexicographically smallest state."""
    p = B.field.p
    S = B.to_structure()
    act = J.basis_action_tensor(S)
    s, t = S.dim, J.rank
    pairs = [(i, j) for i in range(1, s) for j in range(i, s)]
    base = [[int(c) for c in v] for v in S.base_images]
    deltas = []
    for gi in range(1, s):
        for gb in range(t):
            dc = []
            for i, j in pairs:
                for l in range(t):
                    v = 0
                    if j == gi:
                        v += int(act[i, l, gb])
                    if i == gi:
                        v += int(act[j, l, gb])
                    if l == gb:
                        v -= int(S.mul[i, j, gi])
                    dc.append(v)
            de = [base[v][gi] if l == gb else 0 for v in range(B.n_base) for l in range(t)]
            deltas.append((dc, de))
    index = {st: k for k, st in enumerate(states)}
    parent = list(range(len(states)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for k, (cd, eta) in enumerate(states):
        for dc, de in deltas:
            nc = tuple((a - b) % p for a, b in zip(cd, dc))
            ne = tuple((a + b) % p for a, b in zip(eta, de))
            assert (nc, ne) in index, "a section change left the survivor set"
            ra, rb = find(k), find(index[(nc, ne)])
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for k, st in enumerate(states):
        groups.setdefault(find(k), []).append(st)
    reps = sorted(min(g) for g in groups.values())
    rep_index = {rep: i for i, rep in enumerate(reps)}
    orbit_of = {st: rep_index[min(g)] for g in groups.values() for st in g}
    return tuple(reps), orbit_of


def literal_lifts(prob):
    """(candidates, [(images, offsets)], spent) of the lift scan by the
    literal loop; nothing is charged when a base relation already fails
    at the forced base images."""
    B, Cp = prob.B, prob.Cprime
    p = B.field.p
    nbv, ng, t = B.n_base, B.n_gens, len(prob.n_basis)
    pre = [list(v) for v in prob.preimages]
    if any(any(Cp.evaluate(g, pre)) for g in B.base_relations):
        return 0, [], 0
    ndig = ng * t
    out = []
    for n in range(p**ndig):
        d = _digits(n, ndig, p)
        imgs = [list(v) for v in pre]
        for g in range(ng):
            for k in range(t):
                imgs[nbv + g] = [(a + d[g * t + k] * b) % p for a, b in zip(imgs[nbv + g], prob.n_basis[k])]
        if not any(any(Cp.evaluate(r, imgs)) for r in B.ideal_gens()):
            out.append((tuple(tuple(v) for v in imgs), d))
    return p**ndig, out, p**ndig


def _explicit_module(B, t):
    """k^t with every generator acting by zero."""
    z = Matrix.zeros(B.field, t, t)
    return FiniteModule(B, tuple(f"j{k}" for k in range(t)), tuple(z for _ in range(B.nvars)))


def _deformation_problem(field, gens, relations, module, phi):
    """B over A = k[s]/(s^2), deformed across k[s]/(s^3) -> A; module
    is "trivial", "regular" or the rank of a zero-action module."""
    B = make_algebra(field, gens, relations, base_gens=["s"], base_relations=["s^2"])
    if module == "trivial":
        J = FiniteModule.trivial(B)
    elif module == "regular":
        J = FiniteModule.regular(B)
    else:
        J = _explicit_module(B, module)
    Ap = make_algebra(field, ["s"], ["s^3"])
    gen = parse_polynomial("s^2", ("s",), field)
    return BaseDeformationProblem.from_presented_total(
        B, J, Ap, [gen], None if phi is None else Matrix.from_rows(field, phi)
    )


ALL_PRIMES = [GF(2), GF(3), GF(5)]


def _extension_cases(field):
    base_only = make_algebra(field, [], [], base_gens=["s"], base_relations=["s^2"])
    ci = make_algebra(field, ["x"], ["x^2 - s"], base_gens=["s"], base_relations=["s^2"])
    B = fat_point(field)
    D = dual_numbers(field)
    k = make_algebra(field, [], [])
    return [
        (B, FiniteModule.trivial(B)),
        (D, FiniteModule.regular(D)),
        (base_only, _explicit_module(base_only, 2)),  # nbv = 1, t = 2
        (base_only, FiniteModule.regular(base_only)),  # eta enters through the action
        (ci, FiniteModule.trivial(ci)),
        (k, FiniteModule.trivial(k)),  # B = k: no digits at all
        (B, _explicit_module(B, 0)),  # the zero module: no digits at all
    ]


@pytest.mark.parametrize("field", ALL_PRIMES, ids=str)
def test_extension_scan_matches_literal_loop(field):
    for B, J in _extension_cases(field):
        bud = EnumerationBudget(1 << 20)
        scan = enumerate_extensions(B, J, budget=bud)
        states, spent = literal_structures(B, J, [[0] * J.rank for _ in B.base_relations])
        assert scan.states == states
        assert bud.spent == spent
        assert (scan.orbit_reps, scan.orbit_of) == literal_orbits(B, J, states)


def _deformation_cases(field):
    cases = [
        _deformation_problem(field, ["x"], ["x^2 - s"], "trivial", None),
        _deformation_problem(field, [], [], 2, [[1], [1]]),  # nbv = 1, t = 2
        _deformation_problem(field, [], [], "regular", [[0], [1]]),  # eta enters through the action
    ]
    if field.p == 2:
        cases.append(_deformation_problem(field, ["x", "y"], ["x^2 + s", "x*y", "y^2 + s"], "trivial", None))
    return cases


@pytest.mark.parametrize("field", ALL_PRIMES, ids=str)
def test_deformation_scan_matches_literal_loop(field):
    for prob in _deformation_cases(field):
        bud = EnumerationBudget(1 << 20)
        scan = enumerate_deformations(prob, budget=bud)
        targets = [prob.phi.mul_vec(list(a)) for a in prob.alpha]
        states, spent = literal_structures(prob.B, prob.J, targets)
        assert scan.states == states
        assert bud.spent == spent
        assert (scan.orbit_reps, scan.orbit_of) == literal_orbits(prob.B, prob.J, states)


def test_regular_module_orbits_match_the_literal_loop():
    # 2^24 candidates, 4,096 states in 256 classes of 16
    field = GF(2)
    B = make_algebra(field, ["x", "y"], ["x^2", "y^2"])
    J = FiniteModule.regular(B)
    scan = enumerate_extensions(B, J, budget=1 << 24)
    assert (scan.count, scan.class_count) == (4096, 256)
    assert (scan.orbit_reps, scan.orbit_of) == literal_orbits(B, J, scan.states)


@pytest.mark.parametrize(
    "gens, relations, module, budget",
    [
        (["x", "y", "z"], ["x^2", "y^2", "z^2"], "trivial", 1 << 28),
        (["x", "y"], ["x^2", "y^2"], "regular", 1 << 24),
    ],
    ids=["trivial-2^28", "regular-2^24"],
)
def test_scans_reach_past_the_default_budget(gens, relations, module, budget):
    """Candidate spaces the default budget refuses, solved from one rref
    each: the counts are powers of p in dim T0 and dim T1."""
    field = GF(2)
    B = make_algebra(field, gens, relations)
    J = getattr(FiniteModule, module)(B)
    t0, t1, _ = (m.dim for m in t_modules(B, J))
    with pytest.raises(BudgetExceeded):
        enumerate_extensions(B, J)
    scan = enumerate_extensions(B, J, budget=budget)
    assert scan.candidates == budget
    assert scan.class_count == 2**t1
    assert enumerate_derivations(B, J, budget=budget).count == 2**t0
    assert scan.has_band(t0)


def test_a_missing_state_fails_the_closure_check():
    field = GF(3)
    B = dual_numbers(field)
    J = FiniteModule.regular(B)
    scan = enumerate_extensions(B, J)
    assert scan.count > scan.class_count, "orbits of more than one state"
    S, _, act = oracle._structure_context(B, J)
    deltas = oracle._section_change_deltas(S, J, act, oracle._pairs(S.dim), field.p)
    nc = len(scan.states[0][0])
    X = np.array([cd + eta for cd, eta in scan.states], np.int64)
    reps, inv, rank = oracle._classify_states(X, nc, deltas, field)
    assert reps == scan.orbit_reps and rank == scan.delta_rank
    assert inv.tolist() == [scan.orbit_of[state] for state in scan.states]
    with pytest.raises(AssertionError, match="a section change left the survivor set"):
        oracle._classify_states(X[:-1], nc, deltas, field)


def test_the_literal_cases_include_an_obstructed_problem():
    prob = _deformation_cases(GF(2))[-1]
    assert obstruction_class(prob).obstructed
    assert enumerate_deformations(prob).count == 0


def _lift_cases(field):
    base_only = make_algebra(field, [], [], base_gens=["s"], base_relations=["s^2"])
    ci = make_algebra(field, ["x"], ["x^2 - s"], base_gens=["s"], base_relations=["s^2"])
    Cp = make_algebra(field, ["w", "e"], ["w^4", "w*e", "e^2"])

    def lift(B, ideal, images):
        poly = [parse_polynomial(g, Cp.names, field) for g in ideal]
        phi = [parse_polynomial(g, Cp.names, field) for g in images]
        return LiftProblem.from_presented(B, Cp, poly, phi)

    return [
        _solvable_lift(field),
        _unsolvable_lift(field),
        lift(ci, ["e", "w^2"], ["w^2", "w"]),  # base and relative generators
        lift(base_only, ["w^2"], ["w^2"]),  # no relative generators
        lift(base_only, ["w^2"], ["w"]),  # s^2 goes to w^2: no charge
    ]


@pytest.mark.parametrize("field", ALL_PRIMES, ids=str)
def test_lift_scan_matches_literal_loop(field):
    for prob in _lift_cases(field):
        bud = EnumerationBudget(1 << 20)
        scan = enumerate_lifts(prob, budget=bud)
        candidates, lifts, spent = literal_lifts(prob)
        assert scan.candidates == candidates
        assert list(zip(scan.images, scan.offsets)) == lifts
        assert bud.spent == spent


def test_lift_cases_cover_the_edges():
    *_, no_rel, early = _lift_cases(GF(3))
    assert no_rel.B.n_gens == 0 and enumerate_lifts(no_rel).count == 1
    bud = EnumerationBudget(1 << 20)
    assert enumerate_lifts(early, budget=bud).candidates == 0 and bud.spent == 0


def test_the_scans_run_without_the_cochain_machinery(monkeypatch):
    field = GF(3)
    B, J = _extension_cases(field)[4]  # base and relative generators
    prob = _deformation_cases(field)[0]
    lift = _lift_cases(field)[2]

    def refused(*args, **kwargs):
        raise AssertionError("an oracle used the cochain machinery")

    for name in ("product_cofactors", "generator_cofactors", "relation_tensor"):
        monkeypatch.setattr(PresentedAlgebra, name, refused)
    monkeypatch.setattr(cotangent, "cochain_maps", refused)
    monkeypatch.setattr(deformation, "cochain_maps", refused)
    assert enumerate_derivations(B, J).count
    ext = enumerate_extensions(B, J)
    assert all(ext.table_of(state) for state in ext.states if not any(state[1]))
    dfm = enumerate_deformations(prob)
    assert dfm.count and all(dfm.table_of(state) for state in dfm.states)
    assert enumerate_lifts(lift).count


# ---------------------------------------------------------------------------
# the literal re-checks, their chunks, and the lift scan's affine rows


def _corrupt_first_row(monkeypatch, columns):
    """Patch the oracle's solve_affine so that its first row moves by a
    unit digit that changes one of the first ``columns`` values of
    d @ R + c: the returned row is no solution."""
    real = _kernels.solve_affine

    def corrupt(R, c, p, *args, **kwargs):
        rows = real(R, c, p, *args, **kwargs).copy()
        k = next(k for k in range(len(R)) if np.any(np.asarray(R)[k, :columns] % p))
        rows[0, k] = (rows[0, k] + 1) % p
        return rows

    monkeypatch.setattr(oracle._kernels, "solve_affine", corrupt)


def test_a_corrupted_structure_row_fails_the_literal_recheck(monkeypatch):
    field = GF(3)
    B, J = _extension_cases(field)[4]  # base and relative generators
    prob = _deformation_cases(field)[0]
    assert enumerate_extensions(B, J).count and enumerate_deformations(prob).count
    # the base relation values come first in the scan's joint residual
    _corrupt_first_row(monkeypatch, len(B.base_relations) * (B.dim() + J.rank))
    with pytest.raises(AssertionError, match="base structure scan produced a wrong state"):
        enumerate_extensions(B, J)
    with pytest.raises(AssertionError, match="base structure scan produced a wrong state"):
        enumerate_deformations(prob)


def test_a_corrupted_lift_row_fails_the_literal_recheck(monkeypatch):
    prob = _lift_cases(GF(3))[2]
    assert enumerate_lifts(prob).count
    _corrupt_first_row(monkeypatch, None)
    with pytest.raises(AssertionError, match="scan produced an invalid lift"):
        enumerate_lifts(prob)


@pytest.mark.parametrize("chunk", [1, 7])
def test_the_chunk_size_changes_no_scan(chunk, monkeypatch):
    field = GF(5)
    B, J = _extension_cases(field)[4]
    prob = _deformation_cases(field)[0]
    lift = _lift_cases(field)[2]

    def scans():
        ext, dfm, lifts = enumerate_extensions(B, J), enumerate_deformations(prob), enumerate_lifts(lift)
        return ext.states, dfm.states, (lifts.images, lifts.offsets)

    before = scans()
    survivors = [len(before[0]), len(before[1]), len(before[2][0])]
    assert min(survivors) > 7
    calls = []
    evaluate_stack = oracle.evaluate_stack

    def spy(field, mul, polys, images):
        calls.append(len(images))
        return evaluate_stack(field, mul, polys, images)

    monkeypatch.setattr(oracle, "evaluate_stack", spy)
    monkeypatch.setattr(oracle, "CHUNK", chunk)
    assert scans() == before
    # every survivor is re-checked, in stacks of at most chunk
    rechecks = [k for k in calls if k <= chunk]
    assert len(rechecks) >= sum(-(-n // chunk) for n in survivors)


def _derivative_rows(prob):
    """(R, const) of the lift scan from the partial derivatives: block
    (g, j) of R holds df_j/dx_g(pre) * n_d in row d, and const holds
    every f_j(pre)."""
    B, Cp = prob.B, prob.Cprime
    f = B.field
    nbv, ng, t, s = B.n_base, B.n_gens, len(prob.n_basis), Cp.dim
    rels = list(B.relations) + list(B.base_relations)
    pre = [list(v) for v in prob.preimages]
    const = np.array([c for r in rels for c in Cp.evaluate(r, pre)], np.int64)
    N = f.array([list(v) for v in prob.n_basis]).reshape(t, s)
    table = Cp.mul.reshape(s, s * s)
    R = np.zeros((ng * t, len(const)), np.int64)
    for j, r in enumerate(rels):
        for g in range(ng):
            dr = f.array(Cp.evaluate(r.derivative(nbv + g), pre))
            R[g * t : (g + 1) * t, j * s : (j + 1) * s] = f.matmul(N, f.matmul(dr, table).reshape(s, s))
    return R, const


@pytest.mark.parametrize("field", ["F2", "F3"])
def test_lift_rows_from_unit_offsets_match_the_derivatives(field, monkeypatch):
    ps = load_problem_file(lift_problem_set(field))
    p = ps.field.p
    seen = []
    real = _kernels.solve_affine

    def spy(R, c, p, *args, **kwargs):
        seen.append((np.asarray(R) % p, np.asarray(c) % p))
        return real(R, c, p, *args, **kwargs)

    monkeypatch.setattr(oracle._kernels, "solve_affine", spy)
    specs = [spec for spec in ps.problems if isinstance(spec, LiftSpec)]
    for spec in specs:
        prob = reports._build_lift_problem(ps, spec)
        seen.clear()
        enumerate_lifts(prob)
        (R, c), = seen
        R0, c0 = _derivative_rows(prob)
        assert R.tolist() == (R0 % p).tolist() and c.tolist() == (c0 % p).tolist()
    assert len(specs) >= 30


# ---------------------------------------------------------------------------
# the band: every orbit of a scan has p^((s-1)t - dim T0) states


_BAND_SUITES = ("showcase", "deformations", "presentations", "integrity")


@pytest.mark.parametrize("field", ["F2", "F3"])
def test_the_band_holds_on_the_corpus_problems(field, monkeypatch):
    seen = []
    has_band = oracle._StructureScan.has_band

    def spy(scan, t0_dim):
        ok = has_band(scan, t0_dim)
        seen.append((ok, scan.count // max(scan.class_count, 1)))
        return ok

    monkeypatch.setattr(oracle._StructureScan, "has_band", spy)
    for suite in _BAND_SUITES:
        rep = run_suite(suite, field=field, opts=reports.RunOptions(oracle=True))
        # the showcase's expected blocks are frozen for F2; the oracles must agree
        assert all((e.get("oracle") or {}).get("match") is not False for e in rep.problems)
    assert len(seen) >= 20 and all(ok for ok, _ in seen)
    # orbits of more than one state occur, so the check is not vacuous
    assert max(size for _, size in seen) > 1


@pytest.mark.parametrize("kind", ["tmods", "deform"])
def test_a_corrupted_orbit_flips_the_oracle_match(kind, monkeypatch):
    name = {"tmods": "enumerate_extensions", "deform": "enumerate_deformations"}[kind]
    scan_fn = getattr(reports, name)

    def corrupted(*args, **kwargs):
        scan = scan_fn(*args, **kwargs)
        if scan.orbit_of:
            # orbits recorded p times larger than the scan checked them:
            # the class count stands
            scan.delta_rank += 1
        return scan

    ps = load_problem_file(showcase_problem_set("F3"))
    opts = reports.RunOptions(oracle=True)
    clean = reports.run_problem_set(ps, opts, kinds=[kind])
    monkeypatch.setattr(reports, name, corrupted)
    broken = reports.run_problem_set(ps, opts, kinds=[kind])
    assert [e["oracle"]["match"] for e in clean.problems] == [True] * len(clean.problems)
    classes = {"tmods": "extension_classes", "deform": "classes"}[kind]
    flipped = [e["oracle"]["match"] for e in broken.problems if e["oracle"][classes]]
    assert flipped and not any(flipped)
    # only the match moved: the counts in the report are unchanged
    for a, b in zip(clean.problems, broken.problems):
        assert {k: v for k, v in a["oracle"].items() if k != "match"} == {
            k: v for k, v in b["oracle"].items() if k != "match"
        }
