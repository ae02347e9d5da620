"""The stepping loop, the end of an orbit and the Newton driver.

`run_trajectory`, `orbit_end` and `scan_fixed_points` are the entry
points for every system.  All run a scheme's step, a `_Step` of
nsfd.integrators: the one text of the scheme's arithmetic, with a line
"fp, fm, gp, gm = components(u, v)" per stage.  One generator,
`_compiled_form`, compiles that text into each of the forms that run
it, once per process for each form, text and tuple of the callables'
code objects: the stepping loop (`_LOOP`), which stores every state of
an orbit; the end of an orbit (`_END`), the same steps and halts with
nothing stored, which gives the stored count, the last stored state and
the first stored index outside the closed quadrant (compare_schemes'
rows and `step`); the step (x, y) -> (x', y') on python floats or numpy
arrays (`_STEP`); and the Newton finish of one ghost-scan seed
(`_FINISH`).  A field that passes the array rule is written
into the form as statements over generated names, by the same bytecode
walker that takes the rule's verdict (`_arithmetic_loads`), and its
cells, globals and constants are bound once per evaluator
(`_Evaluator.form`); a field that fails the rule, or a class's override
of components, is called from it.  An orbit's step then costs its
arithmetic and the calls of the fields that fail the rule, with no call
of its own (per-step rates in the README, Backends); the first run of
each form in a process pays for compiling it, under a millisecond.
`scan_fixed_points` and the balance search of nsfd.equilibria run one
Newton driver, `_newton`, over all seeds at once as numpy arrays: the
search gives the residual and its Jacobian and the driver's stop rule
(the scan's last iterate, or the search's best one).  The scan's residual
is the step less the identity, with the point and its four central-
difference probes in one guarded call of the compiled step on arrays
where the four fields pass the rule, and through `_Evaluator.map`
elsewhere; once at most `_SCALAR_SEEDS` seeds go on, each finishes alone
on python floats in the fourth form (`_FINISH`), the step written in at
the point and its probes with the Jacobian and the update, where a numpy
iteration would cost more than its seeds' python iterations.  The
balance search runs its balances, a `_Step` text too, through
`_Evaluator.map` in the same way.  Where the system's eight analytic
partials pass the rule too, it runs a text of the balances and their
Jacobian instead, whose second stage line "fpx, fpy, fmx, fmy, gpx, gpy,
gmx, gmy = partials(u, v)" the same generator writes the partials into,
with the fields: one guarded call per Newton iteration, and the two calls
of the balances and of the partials only in an iteration where that call
trips a numpy flag.  The construction checks of nsfd.systems
run two texts so too, the four components and the eight partials at
(x, y): one guarded call on the sign check's grid, and two on the
partials check's subgrid and its stacked stencil points, whose verdict
can only pass a system; where it does not, or a callable fails the rule,
the checks make their calls through `_Evaluator.each`, as before, and
decide.  That halves the cost of building a system of the family, from
about 0.32 ms to 0.15 ms for `model2()`.

Every system takes one path, and `_Evaluator` makes every call of its
callables, on arrays and on python floats: the orbits and the ghost scan
here, the equilibrium search, the closed forms and the finite differences
in nsfd.equilibria and nsfd.systems, and the construction checks.  One
evaluator serves one orbit, comparison table, scan, search, check or
point and takes each callable's verdict under the array rule
(`_rule_values`: plain + - * / in x and y) once.  A callable that passes
runs on whole arrays under `_raising`, and is called as it is on python
floats; one that fails it, or whose call trips a numpy flag, runs once
per element on python floats, in the order of the scalar calls, and on
python floats it raises _NotReal in place of a value that is not a real
number.  A class that
overrides SplitSystem.components fails the rule, and its components run
once per point.

All these forms give the bits of the seed-by-seed scan.  numpy's elementwise
+ - * / and python's float arithmetic are the same correctly rounded IEEE
operations, so the same expression order gives the same bits; do not
"optimise" the expression order in this file or in the steps.  A compiled
form writes each operation of an inlined field in parentheses, in the
field's own order, over the same operands, so it too gives the bits of
the field's call; where that call raises, so does the form.
"""

import dis
import inspect
import math
import numbers
import sys
import types
from functools import lru_cache

import numpy as np

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 80
NEWTON_ESCAPE = 1e12

# what a python component may raise off the quadrant: the orbit or seed ends
_DROPS = (ZeroDivisionError, OverflowError, ValueError)


class _NotReal(ValueError):
    """A callable gave a value that is not a real number (None, a str, a
    complex): a search drops the point, as for the ValueError it is."""


def _real(v) -> bool:
    return type(v) is float or isinstance(v, numbers.Real)


def resolve_backend(requested: "str | None" = None) -> str:
    """The backend that runs: "python", the only one.  Any other request
    raises ValueError."""
    if requested is not None and requested.strip().lower() != "python":
        raise ValueError(f"unknown backend {requested!r}; expected 'python'")
    return "python"


class _Step:
    """A scheme's step, from its one arithmetic text: python statements
    that take the state (x, y) to the next one in place, over e, the
    scheme's last argument, and the line "fp, fm, gp, gm = components(u,
    v)" once per stage (nsfd.integrators writes them; nsfd.equilibria
    writes the balances so too, and nsfd.systems the components its
    construction checks read).  A text may also take the eight analytic
    partials, by the line "fpx, fpy, fmx, fmy, gpx, gpy, gmx, gmy =
    partials(u, v)": nsfd.equilibria writes the balances and their
    Jacobian so, and nsfd.systems the partials alone, and each runs its
    text only with all twelve written in.

    make(components, e) gives the step (x, y) -> (x', y') of a system with
    those components, on python floats or numpy arrays alike.  The orbits,
    their ends, the Newton scans and the balance Newton run the same text
    compiled with the fields written in (`_Evaluator.form`).  One object
    per text, compared by identity: compare_schemes keys its shared runs
    on it.
    """

    def __init__(self, text):
        self.text = text
        self.takes_partials = _PARTIALS in text

    def __call__(self, components, e):
        return _compiled_form(_STEP, self.text, None)(e, components)


# The forms of a step's text: {step} is the text, on a line of its own at
# the indent it takes, its components (and partials) written in or
# called, and {bound} the names of the values they bind, after components.
#
# The stepping loop: n steps from (x, y) into xs, ys, stopping just before
# the first state that is non-finite, or whose step raised
# ZeroDivisionError, OverflowError or ValueError (a math domain error off
# the quadrant, or _NotReal from a component whose value is not a real
# number); it returns the stored count.
_LOOP = """\
def form(x, y, n, xs, ys, e, components{bound}):
    isfinite = math.isfinite
    for k in range(1, n + 1):
        try:
            {step}
        except _DROPS:
            return k
        if not (isfinite(x) and isfinite(y)):
            return k
        xs[k] = x
        ys[k] = y
    return n + 1
"""
# The end of an orbit: the stepping loop's n steps and halts, storing
# nothing.  It returns the count the loop would store, the last state it
# would store, as python floats, and the first index of a stored state with
# a negative coordinate, -1 for none; index 0, the start, counts.  A state
# is tested once it is stored, after the finiteness test, and through its
# float, which is what the loop stores.
_END = """\
def form(x, y, n, e, components{bound}):
    isfinite = math.isfinite
    last_x, last_y = x, y
    neg = 0 if x < 0.0 or y < 0.0 else -1
    for k in range(1, n + 1):
        try:
            {step}
        except _DROPS:
            return k, float(last_x), float(last_y), neg
        if not (isfinite(x) and isfinite(y)):
            return k, float(last_x), float(last_y), neg
        last_x, last_y = x, y
        if (x < 0.0 or y < 0.0) and neg < 0 and (float(x) < 0.0 or float(y) < 0.0):
            neg = k
    return n + 1, float(x), float(y), neg
"""
# The step (x, y) -> (x', y'), on python floats or numpy arrays alike.
_STEP = """\
def form(e, components{bound}):
    def step(x, y):
        {step}
        return x, y
    return step
"""
# a stage's line, but for "u, v)", and the index in a form's codes of the
# first callable it binds: the four fields, then the eight analytic partials
# in PartialValues order, which a text may take too
_PARTIALS = "fpx, fpy, fmx, fmy, gpx, gpy, gmx, gmy = partials("
_STAGES = {"fp, fm, gp, gm = components(": 0, _PARTIALS: 4}


def _compile_form(template, text, codes):
    """The form of a step's text in template for codes: None where
    components is called as a whole, else one entry per field, then per
    partial where the text takes the partials, its code object where the
    callable passes the array rule and is written inline, None where it
    is called.  Callable i's names begin "_f<i>": the callable itself
    where called, its `_params` where inlined; the form takes them, in
    that order, after components.
    """
    bound, step = [], []
    for i, code in enumerate(codes or ()):
        bound += [f"_f{i}"] if code is None else _params(_arithmetic_loads(code), f"_f{i}")
    for line in text.splitlines():
        stage = next((s for s in _STAGES if line.startswith(s)), None) if codes else None
        if stage is None:
            step.append(line)
            continue
        u, v = line[len(stage):-1].split(", ")
        names = stage[:stage.index(" =")].split(", ")
        for i, name in enumerate(names, _STAGES[stage]):
            code = codes[i]
            if code is None:
                step.append(f"{name} = _f{i}({u}, {v})")
                continue
            _, _, _, lines, value = _arithmetic_loads(code)
            step += [local.format(u, v, f"_f{i}") for local in lines]
            step.append(f"{name} = {value.format(u, v, f'_f{i}')}")
    # the step's lines at each {step} line of the template, at its indent
    src = template.format(bound="".join(", " + b for b in bound), step="{step}").splitlines()
    src = "\n".join("\n".join(line.replace("{step}", s) for s in step) if "{step}" in line
                     else line for line in src)
    space = {"math": math, "_DROPS": _DROPS, "isfinite": math.isfinite, "inf": math.inf,
             "nan": math.nan}
    exec(compile(src, "<nsfd step>", "exec"), space)
    return space["form"]


# the compiled forms, by template, text and the ids of the codes, each with
# the codes it was compiled for, which keep their ids their own; a code
# object's own hash costs more than the rest of a lookup
_FORMS = {}
_MAX_FORMS = 128


def _compiled_form(template, text, codes):
    """`_compile_form(template, text, codes)`, compiled once per process
    while at most _MAX_FORMS are held."""
    key = (template, text) if codes is None else (template, text, *map(id, codes))
    got = _FORMS.get(key)
    if got is None:
        if len(_FORMS) >= _MAX_FORMS:
            _FORMS.clear()
        got = _FORMS[key] = codes, _compile_form(template, text, codes)
    return got[1]


def run_trajectory(system, make, x0, y0, e, n):
    """n steps of the step make(components, e) from (x0, y0), over the
    checked components of `_Evaluator.point_components`, in the stepping
    loop of `_Evaluator.form`.  Returns (xs, ys, stored_count).

    make is a scheme's `_Step`, e, a python float, the denominator weight
    for nsfd/ensfd and h for the classical schemes.  A stored count m <= n
    means the orbit stopped just before grid index m.  A run that calls a
    component turns numpy's warnings off (`_run`): the orbit halts
    silently, as with python floats.
    """
    calls = _Evaluator(system)
    xs = np.empty(n + 1)
    ys = np.empty(n + 1)
    xs[0] = x = float(x0)
    ys[0] = y = float(y0)
    m = _run(calls, _LOOP, make, x, y, n, xs, ys, e)
    return (xs, ys, m) if m > n else (xs[:m], ys[:m], m)


def orbit_end(calls, make, x0, y0, e, n):
    """The end of the orbit `run_trajectory` would store, by the evaluator
    calls, in the form `_END`: the same steps and halts, with nothing
    stored.  Returns (stored_count, x, y, first_negative): the stored
    count, the last stored state as python floats, and the first index of
    a stored state with a negative coordinate, -1 for none (0 where the
    start has one)."""
    return _run(calls, _END, make, float(x0), float(y0), n, e)


def _run(calls, template, make, x, y, n, *args):
    # the form of make's text in template run from (x, y) over calls'
    # bound values: numpy scalar arithmetic (of a component that returns
    # numpy scalars) that overflows on the way to a state that halts only
    # warns, so its warnings are off for a run that calls a component
    form, bound = calls.form(template, make)
    if calls.whole:  # python floats throughout (e is one): numpy is silent
        return form(x, y, n, *args, *bound)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return form(x, y, n, *args, *bound)


def scan_fixed_points(system, make, e, seeds_x, seeds_y, tol=NEWTON_TOL,
                      max_iter=NEWTON_MAX_ITER, escape=NEWTON_ESCAPE):
    """Newton scan for fixed points of the step make(system.components, e).

    Returns an (n, 3) array of (x, y, residual) rows, one per seed, in seed
    order; a seed whose residual is not below tol failed.  Every system
    runs `scan_fixed_points_generic`.
    """
    return scan_fixed_points_generic(system, make, e, seeds_x, seeds_y, tol, max_iter, escape)


def scan_fixed_points_generic(system, make, e, seeds_x, seeds_y, tol=NEWTON_TOL,
                              max_iter=NEWTON_MAX_ITER, escape=NEWTON_ESCAPE):
    """The Newton scan of the step make(components, e) for any system, on
    map - identity with a central-difference Jacobian: `_newton` over the
    step on arrays, and the step's finish form (`_FINISH`) on python floats
    for the last few seeds.

    Where the four components pass the array rule, the step compiled with
    them written in takes each seed's point and its four Jacobian probes in
    one guarded call on arrays, and the probes of a seed that retires on its
    residual are computed and ignored: a second call per iteration cost the
    scan workload about 10% (BENCH_9.json).  Otherwise, and in an iteration
    where that call trips a numpy flag, `_Evaluator.map` takes the points
    and then the probes only of the seeds that go on, as seed by seed.  A
    seed fails, rather than aborting the scan, where a component raises
    ZeroDivisionError, OverflowError or ValueError or returns a value that
    is not a real number (a fractional power of a negative coordinate).
    """
    calls = _Evaluator(system)
    checked = calls.map(make, e)
    step = calls.step(make, e) if calls.whole else None

    def points(s):
        # (dx, dy), and the points then their probes x + dx, x - dx, y + dy
        # and y - dy, end to end
        d = 1e-6 * np.maximum(1.0, np.abs(s))
        (x, y), (xp, yp), (xm, ym) = s, s + d, s - d
        return d, np.concatenate((x, xp, xm, x, x)), np.concatenate((y, y, y, yp, ym))

    def probed(s):  # under _raising, where a probe that overflows trips a flag too
        d, px, py = points(s)
        return d, step(px, py)

    def terms(s):
        got = None if step is None else _raising(probed, s)
        if got is None:
            (mx, my), _ = checked(*s)
            return mx - s[0], my - s[1], None, None
        d, (mx, my) = got
        m = d.shape[1]
        return mx[:m] - s[0], my[:m] - s[1], None, _differences(d, mx[m:], my[m:])

    def partials(s):  # a probe that drops is nan, and its seed's Jacobian singular
        d, px, py = points(s)
        m = d.shape[1]
        (px, py), _ = checked(px[m:], py[m:])
        return _differences(d, px, py), np.zeros(m, dtype=bool)

    form, bound = calls.form(_FINISH, make)
    finish = form(tol, min(escape, _FLOAT_MAX), e, *bound)
    return _newton(terms, partials, np.array([seeds_x, seeds_y], dtype=np.float64), tol,
                   max_iter, escape, finish=finish)


def _differences(d, px, py):
    # the central-difference Jacobian of map - identity, for the steps d =
    # (dx, dy), from the probes' values: px, py the four probes' x + dx, x
    # - dx, y + dy and y - dy end to end
    t = 2.0 * d
    # (j11 + 1, j12) and (j21, j22 + 1)
    jx, jy = ((p[:, 0] - p[:, 1]) / t for p in (px.reshape(2, 2, -1), py.reshape(2, 2, -1)))
    return jx[0] - 1.0, jx[1], jy[0], jy[1] - 1.0


# The array rule.  A callable written as one + - * / expression in x and y
# (through locals, unary minus, closure cells, globals and constants that
# hold python floats or small ints) performs, called on float arrays,
# numpy's elementwise form of the operations its scalar call performs on
# python floats, in the same order: the same correctly rounded IEEE
# operations.  The bits can differ only where a scalar call would raise
# or meet a non-finite value: python raises ZeroDivisionError for any
# divisor 0, where numpy gives inf or nan, silently for a non-finite
# numerator.  So the rule asks for finite inputs and finite scalars, lets
# no operation combine two scalars (a python float that overflows to inf
# sets no numpy flag), and makes numpy raise on divide, overflow and
# invalid: with none raised, every divisor was non-zero and every value
# finite, and each scalar call gives the bits and raises nothing.  An
# instruction outside the list costs speed, never bits.

_EXACT_INT = 2 ** 53  # every int up to this is a float, exactly
_REFUSED_FLAGS = (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS | inspect.CO_GENERATOR
                  | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR
                  | inspect.CO_ITERABLE_COROUTINE)
# the four operations, by BINARY_OP's argrepr (python 3.11 and later) or
# by their own opnames before it
_ARITH = {"+": "+", "-": "-", "*": "*", "/": "/", "BINARY_ADD": "+", "BINARY_SUBTRACT": "-",
          "BINARY_MULTIPLY": "*", "BINARY_TRUE_DIVIDE": "/"}
_NULL_BIT = sys.version_info >= (3, 11)  # LOAD_GLOBAL's low bit pushes NULL for a call


def _plain_number(v) -> bool:
    """A finite python float, or an int that a float holds exactly."""
    return ((type(v) is float and math.isfinite(v))
            or (type(v) is int and -_EXACT_INT <= v <= _EXACT_INT))


def _params(body, prefix):
    # the generated names of the values an `_arithmetic_loads` body loads,
    # its cells, globals and constants in that order, for prefix
    cells, names, consts, _, _ = body
    return [f"{prefix}{kind}{j}" for kind, n in (("c", len(cells)), ("g", len(names)),
                                                 ("k", len(consts))) for j in range(n)]


@lru_cache(maxsize=512)
def _arithmetic_loads(code):
    """The static half of the rule, once per code object: None unless code
    is a plain + - * / expression in its two parameters, else its body as
    the stepping loop writes it inline, (cells, names, consts, lines,
    value).  cells are the indices of the closure cells it loads, names
    the globals and consts its constants, which the text reads as
    "{2}c<j>", "{2}g<j>" and "{2}k<j>"; lines are the statements of its
    locals and value the expression it returns, as python text with {0}
    and {1} for its two arguments and {2} for the prefix of the generated
    names, "{2}l<j>" a local.  Every operation is parenthesised, so the
    text runs the code's operations in its order, and no name or constant
    of the code enters it.

    Tracks whether each stack value is computed from a parameter (an
    array when the function is called on arrays) and refuses a binary
    operation of two other values, so every scalar that meets an array is
    a cell, global or constant, or one negated.  Each stack value carries
    its text too; a store gives its local a new generated name, so a text
    never reads a local that a later store rebinds.
    """
    if code.co_argcount != 2 or code.co_kwonlyargcount or code.co_flags & _REFUSED_FLAGS:
        return None
    # name -> (computed from x or y, text)
    local = {name: (True, f"{{{i}}}") for i, name in enumerate(code.co_varnames[:2])}
    stack, lines, cells, names, consts = [], [], {}, {}, []

    def const(v):  # each its own load: 0.0 == -0.0 and 1 == 1.0
        consts.append(v)
        stack.append((False, f"{{2}}k{len(consts) - 1}"))

    def store(name):
        computed, text = stack.pop()
        local[name] = computed, f"{{2}}l{len(lines)}"
        lines.append(f"{local[name][1]} = {text}")

    def body():
        return tuple(cells), tuple(names), tuple(consts), tuple(lines), stack.pop()[1]

    try:
        for ins in dis.get_instructions(code):
            op = ins.opname
            sign = _ARITH.get(ins.argrepr if op == "BINARY_OP" else op)
            if op in ("RESUME", "NOP", "CACHE", "COPY_FREE_VARS"):
                continue
            if op in ("LOAD_FAST", "LOAD_FAST_CHECK"):
                stack.append(local[ins.argval])
            elif op == "LOAD_FAST_LOAD_FAST":
                stack += [local[n] for n in ins.argval]
            elif op == "STORE_FAST":
                store(ins.argval)
            elif op == "STORE_FAST_LOAD_FAST":
                store(ins.argval[0])
                stack.append(local[ins.argval[1]])
            elif op == "STORE_FAST_STORE_FAST":
                for n in ins.argval:
                    store(n)
            elif op == "LOAD_DEREF":
                j = cells.setdefault(code.co_freevars.index(ins.argval), len(cells))
                stack.append((False, f"{{2}}c{j}"))
            elif op == "LOAD_GLOBAL" and not (_NULL_BIT and ins.arg & 1):
                stack.append((False, f"{{2}}g{names.setdefault(ins.argval, len(names))}"))
            elif op == "LOAD_CONST" and _plain_number(ins.argval):
                const(ins.argval)
            elif op == "UNARY_NEGATIVE":
                computed, text = stack.pop()
                stack.append((computed, f"(-{text})"))
            elif sign:
                (b, right), (a, left) = stack.pop(), stack.pop()
                if not (a or b):
                    return None
                stack.append((True, f"({left} {sign} {right})"))
            elif op == "RETURN_VALUE":
                return body()
            elif op == "RETURN_CONST" and _plain_number(ins.argval):
                const(ins.argval)
                return body()
            else:
                return None
    except (IndexError, KeyError, ValueError):  # an unbound local, a cell var, a short stack
        return None


def _rule_values(fn):
    """The whole rule but for the inputs: None unless fn is a plain
    function whose code passes `_arithmetic_loads` and whose cells and
    globals hold plain numbers now (a builtin, a numpy scalar or an array
    refuses it), else the list of the values it loads, in the order of
    `_params`: its cells, globals and constants."""
    if type(fn) is not types.FunctionType or fn.__defaults__ or fn.__kwdefaults__:
        return None
    body = _arithmetic_loads(fn.__code__)
    if body is None:
        return None
    cells, names, consts, _, _ = body
    values = []
    try:
        for i in cells:
            v = fn.__closure__[i].cell_contents
            if not _plain_number(v):
                return None
            values.append(v)
    except ValueError:  # an empty cell
        return None
    if names:
        g = fn.__globals__
        for n in names:
            v = g.get(n)  # None, not a plain number, where g lacks n
            if not _plain_number(v):
                return None
            values.append(v)
    values += consts
    return values


def _plain_arithmetic(fn) -> bool:
    """Whether fn passes the rule but for the inputs (`_rule_values`)."""
    return _rule_values(fn) is not None


@np.errstate(divide="raise", over="raise", invalid="raise", under="ignore")
def _raising(fn, *args):
    """fn(*args), or None where numpy raised a divide, overflow or invalid
    flag.  Unguarded, a zero divisor can give a finite value (1 / (y / 0)
    is 0) where the scalar call raises ZeroDivisionError."""
    try:
        return fn(*args)
    except FloatingPointError:
        return None


def _guarded(fns, x, y):
    # [fn(x, y) for fn in fns] under _raising, or None where a flag trips or
    # a result is neither an array nor a python float: an int result reads
    # as an int per element
    out = _raising(lambda x, y: [fn(x, y) for fn in fns], x, y)
    if out is None or not all(type(v) is float or isinstance(v, np.ndarray) for v in out):
        return None
    return out


def _finite(*arrays):
    # a dot product of finite values is finite unless it overflows, which
    # takes values past 1e154; the exact test settles those
    return all(math.isfinite(np.vdot(a, a)) or np.isfinite(a).all() for a in arrays)


class _Evaluator:
    """The calls of one orbit, comparison table, scan, search, construction
    check or point to a system's callables: the one place that chooses
    between a call on whole arrays and calls per element, which give the
    same bits, and that compiles a step's text for the system (`form`).

    Each callable's verdict under the array rule is taken once, at its
    first use; as it reads closure cells and globals, which may change, an
    evaluator serves one operation.  A callable that passes the rule runs
    in one call on finite arrays under `_raising`; one that fails it, or
    whose call trips a flag, runs once per element on python floats, in
    the order of the scalar calls.  fused says whether the four fields make
    the components, which holds where the class keeps
    SplitSystem.components; whole, whether the four also pass the rule, and
    so the step with them written in runs on arrays.  An override of
    components may compute anything, so the rule refuses it, and it runs
    once per point.  partials holds the eight analytic partials in
    PartialValues order, and is empty where the system has none.
    """

    def __init__(self, system):
        self.components = system.components
        self.fields = (system.f_plus, system.f_minus, system.g_plus, system.g_minus)
        self.partials = () if system.partials is None else tuple(
            getattr(system.partials, f) for f in PartialValues._fields)
        self.fused = type(system).components is SplitSystem.components
        self._verdicts = {}
        self._bindings = {}
        self.whole = self.fused and self.plain(self.fields)

    def values(self, fn):
        """fn's verdict: the values it loads where it passes the rule, read
        with the verdict (`_rule_values`), else None."""
        got = self._verdicts.get(id(fn))
        if got is None:  # the entry holds fn, so its id stays its own
            got = self._verdicts[id(fn)] = fn, _rule_values(fn)
        return got[1]

    def plain(self, fns):
        """Whether every fn of fns passes the rule."""
        return all(self.values(fn) is not None for fn in fns)

    def real(self, fn):
        """fn for calls on python floats: fn itself where it passes the
        rule, and so gives a real number or raises; else fn raising _NotReal
        in place of a value that is not a real number."""
        if self.values(fn) is not None:
            return fn

        def call(x, y):
            v = fn(x, y)
            if _real(v):
                return v
            raise _NotReal(f"{v!r} is not a real number")

        return call

    def point_components(self):
        """components for calls on python floats, one point at a time,
        that raise _NotReal at the first value that is not a real number,
        calling no later field there, as `each` drops the point."""
        if self.fused:
            fp, fm, gp, gm = map(self.real, self.fields)
            return lambda x, y: (fp(x, y), fm(x, y), gp(x, y), gm(x, y))
        override = self.components

        def components(x, y):
            v = override(x, y)
            if all(map(_real, v)):
                return v
            raise _NotReal(f"components({x!r}, {y!r}) = {v!r} holds a value that is not real")

        return components

    def form(self, template, make):
        """The form of make's text in template (`_compiled_form`) for this
        system, and the values it binds after its own arguments: components,
        then each field's cells, globals and constants where it passes the
        rule, as read with its verdict, else the field as `real` checks it,
        and so each partial after them where the text takes the partials.
        Where the class overrides components, the form calls
        `point_components()` whole.  The values are bound once per
        evaluator, one list for the texts without the partials and one for
        those with them."""
        got = self._bindings.get(make.takes_partials)
        if got is None:
            got = self._bindings[make.takes_partials] = self._binding(make.takes_partials)
        codes, bound = got
        return _compiled_form(template, make.text, codes), bound

    def _binding(self, with_partials):
        # the codes a form is compiled for and the values it binds (`form`)
        if not self.fused:
            return None, (self.point_components(),)
        codes, bound = [], [None]
        for fn in (self.fields + self.partials) if with_partials else self.fields:
            values = self.values(fn)
            if values is None:
                codes.append(None)
                bound.append(self.real(fn))
            else:
                codes.append(fn.__code__)
                bound += values
        return tuple(codes), bound

    def step(self, make, e):
        """The step make(components, e) of `form`: on python floats, with
        the checked components, and on arrays too where whole."""
        form, bound = self.form(_STEP, make)
        return form(e, *bound)

    def on_arrays(self, fns, x, y):
        """[fn(x, y) for fn in fns] in one guarded call on the float arrays
        x, y where every fn passes the rule and every input is finite, each
        an array or the python float of every scalar call, with the bits of
        fn(x, y) at every element; None where one must go per element.  An
        array may be an input itself."""
        if self.plain(fns) and _finite(x, y):
            return _guarded(fns, x, y)
        return None

    def each(self, fns, x, y, dropped=None, skip=None, catch=_DROPS):
        """Each fn of fns in turn at every point of the float arrays x, y,
        broadcast together: the values, (len(fns),) + their shape, and the
        mask of the elements dropped.

        The points are the elements, or, where dropped (the mask of those
        dropped already) gives the elements' shape, rows of points of them.
        In the order fn, row, element, a fn is called at a point not set in
        skip only if no call before it dropped the element, by raising one
        of catch (any other exception propagates) or by returning a value
        that is not a real number (where every fn passes the rule, they run
        on the arrays at the skipped points too, which no one can tell).  A
        point skipped or not called holds nan; a value called before its
        element dropped is kept, for the construction checks, which read the
        first failing call in fn order.
        """
        shape = np.broadcast(x, y).shape
        fresh = dropped is None or not dropped.any()
        dropped = np.zeros(shape, dtype=bool) if dropped is None else dropped.copy()
        # the usual case: every fn on the arrays as given, the skipped points
        # too, which no one can tell from plain arithmetic, then set to nan
        out = self.on_arrays(fns, x, y) if fresh else None
        if out is not None:
            vals = np.empty((len(fns),) + shape)
            for row, v in zip(vals, out):
                row[...] = v
            if skip is not None:
                np.copyto(vals, np.nan, where=skip)
            return vals, dropped
        vals = np.full((len(fns),) + shape, np.nan)
        flat = dropped.reshape(-1)  # a view: what it drops lands in dropped
        rows = (math.prod(shape[:len(shape) - dropped.ndim]), flat.size)
        px, py = _as_rows(x, shape, rows), _as_rows(y, shape, rows)
        want = np.ones(rows, dtype=bool) if skip is None else ~_as_rows(skip, shape, rows)
        ax, lists = None, {}  # the points to call, made again after a drop
        for row, fn in zip(vals.reshape((len(fns),) + rows), fns):
            if self.values(fn) is not None:
                if ax is None:
                    at = want & ~flat
                    ax, ay = px[at], py[at]
                    finite = _finite(ax, ay)
                v = _guarded([fn], ax, ay) if finite else None
                if v is not None:
                    row[at] = v[0]
                    continue
            for r in range(rows[0]):  # per element, row by row
                if r not in lists:
                    idx = np.flatnonzero(want[r] & ~flat)
                    lists[r] = idx, px[r, idx].tolist(), py[r, idx].tolist()
                idx, lx, ly = lists[r]
                v, drop = _each(fn, lx, ly, catch)
                row[r, idx] = v
                if drop.any():
                    flat[idx[drop]] = True
                    ax, lists = None, {}
        return vals, dropped

    def map(self, make, e):
        """The step make(components, e) at every element of float arrays: a
        function of x, y giving the pair's two arrays, nan where dropped,
        and the mask of the elements dropped.  Where whole, `step` runs on
        the arrays; else, or where that call trips a flag, each call of
        components evaluates the fields by `each`, an element dropped in one
        stage called in no later one; an override of components is called
        once per element.
        """
        step = self.step(make, e)

        def on_arrays(x, y):
            if self.whole and _finite(x, y):
                v = _raising(step, x, y)
                if v is not None:  # a balance of two constant components is a python float
                    return ([c if type(c) is np.ndarray else np.full(x.shape, c) for c in v],
                            np.zeros(x.shape, dtype=bool))
            if self.fused:
                dropped = None

                def components(xs, ys):
                    nonlocal dropped
                    vals, dropped = self.each(self.fields, xs, ys, dropped)
                    return vals

                out = make(components, e)(x, y)
                return ([np.where(dropped, np.nan, c) for c in out] if dropped.any() else out,
                        dropped)
            def point(x, y):
                try:
                    return step(x, y)
                except _DROPS:
                    return None

            vals = [point(a, b) for a, b in zip(x.tolist(), y.tolist())]
            out = np.array([(math.nan, math.nan) if v is None else v for v in vals],
                           dtype=np.float64)
            return out.reshape(-1, 2).T, np.array([v is None for v in vals], dtype=bool)

        return on_arrays


def _as_rows(v, shape, rows):
    # v broadcast to shape, as rows of the elements; np.broadcast_to costs
    # more than a small call, so only where the shape differs
    return (v if np.shape(v) == shape else np.broadcast_to(v, shape)).reshape(rows)


def _each(fn, xs, ys, catch):
    """fn(x, y) called once for each pair of the lists of python floats xs,
    ys: a float array, and the mask of the calls that raised one of catch
    or returned a value that is not a real number (a complex one, say),
    which hold nan.  A real number that no float holds (an int beyond the
    float range) is taken as a raise of the OverflowError its conversion
    raises.  Any other exception propagates."""
    vals, drops, calls = [], [], map(fn, xs, ys)
    while True:
        try:  # extend keeps the values before a raise, and calls goes on after it
            vals.extend(calls)
            break
        except catch:
            drops.append(len(vals))
            vals.append(math.nan)
    dropped = np.zeros(len(vals), dtype=bool)
    dropped[drops] = True
    out = np.array(vals)
    if out.dtype != np.float64:  # a value of another type somewhere
        odd = [not _real(v) for v in vals]
        dropped |= odd
        try:
            out = np.array([math.nan if o else v for v, o in zip(vals, odd)], dtype=np.float64)
        except OverflowError:  # a value no float holds: each in turn
            out = np.full(len(vals), math.nan)
            for i in np.flatnonzero(~dropped).tolist():
                try:
                    out[i] = vals[i]
                except OverflowError as exc:
                    if not isinstance(exc, catch):
                        raise
                    dropped[i] = True
    return out, dropped


# Once at most this many seeds of a ghost scan iterate, the driver hands
# each to the scan's compiled finish on python floats.  Measured on model2
# (2-vCPU Xeon VM, Python 3.11, numpy 2.4): a numpy iteration of the driver
# costs about the same for any count up to 64 seeds, ~52 us for nsfd and
# ~58 us for rk2 at 16 seeds, and a seed's iteration in the finish ~3.1 us
# and ~3.6 us, a break-even near 16 seeds; the ghost scans of model2 and
# of the scan workload took the same time, within noise, for any value
# from 12 to 40.
_SCALAR_SEEDS = 24
_FLOAT_MAX = sys.float_info.max


def _newton(terms, partials, s, tol, max_iter, escape, best=False, finish=None):
    """Newton iteration from every seed (s[0, i], s[1, i]) of the (2, n)
    float array s at once: the one driver of the ghost scan and the
    balance search.  Returns the rows (x, y, residual) as an (n, 3) array,
    in seed order.

    The residual and its Jacobian come from the search.  terms(s) gives
    (rx, ry, dropped, jac) at the live iterates s, a (2, m) array: the
    residual, the mask of the seeds whose evaluation dropped (None for
    none) and the four entries (j11, j12, j21, j22), which may be python
    floats, or None, and then partials(s) gives (jac, dropped) at the seeds
    that go on past the residual test, as the seed-by-seed loops evaluate
    them, dropped a mask.

    The stop rule: a seed goes on while its residual, the sup-norm of (rx,
    ry), is finite and at least tol, its Jacobian is not singular (a
    determinant that is finite and at least 1e-14 in magnitude) and the
    update keeps both coordinates within escape; the cap is max_iter
    iterations.  Without best (the ghost scan, `oracles.scalar_scan`), a
    row holds the seed's last iterate and residual: (x, y, residual) where
    the residual is below tol, (x, y, inf) for a seed that breaks down
    there, the escaped (x', y', inf), and at the cap the last update with
    the residual before it.  With best (the balance search,
    `oracles.scalar_balance_newton`), a row holds the seed's best iterate
    and residual, a drop loses both (residual inf), and a seed also stops
    where its step is within 1e-15 of its iterate, after one last residual
    at the update.  Once at most _SCALAR_SEEDS seeds go on, or at the cap,
    the scan's finish(x, y, residual, n) takes each of them on python
    floats with the n iterations left, none at the cap, and gives its row.

    A seed that is not finite stops at once with residual inf, and every
    update the escape test keeps is finite, so the iterates handed to
    terms are finite: a compiled step may run on them under `_raising`
    with no test of its own.  The live seeds are carried compactly, their
    indices and their iterates as one (2, m) array, and compacted through
    the indices of those that go on, once in an iteration where one stops;
    a row is written where a seed stops (the scan) or betters its best (the
    search).
    """
    n = s.shape[1]
    escape = min(escape, _FLOAT_MAX)  # abs(v) <= escape is False for inf and nan
    rows = np.vstack((s, np.full(n, np.inf)))  # x, y, residual: the best, with best

    def settle(keep, point):
        # the positions of the live seeds that keep marks; the scan's rows of
        # the others, at point
        if not best:
            k = (~keep).nonzero()[0]
            _put(rows, idx[k], point.take(k, 1), res[k])
        return keep.nonzero()[0]

    done = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        idx = np.arange(n) if np.isfinite(s).all() else np.isfinite(s).all(axis=0).nonzero()[0]
        s, res = s.take(idx, 1), np.full(idx.size, np.inf)
        limit = 0 if finish is None else _SCALAR_SEEDS
        while idx.size > limit and done < max_iter:
            done += 1
            rx, ry, dropped, jac = terms(s)
            res = np.maximum(np.abs(rx), np.abs(ry))  # nan where dropped
            if best:
                _better(rows, idx, s, res, dropped)
            go = (res >= tol) & (res <= _FLOAT_MAX)
            if jac is None:  # the partials only at the seeds that go on
                k = settle(go, s)
                idx, s, rx, ry, res = idx[k], s.take(k, 1), rx[k], ry[k], res[k]
                jac, dropped = partials(s)
                go = ~dropped
                rows[2][idx[dropped]] = np.inf  # a drop loses the search's row
            j11, j12, j21, j22 = jac
            det = j11 * j22 - j12 * j21
            go &= (np.abs(det) >= 1e-14) & np.isfinite(det)
            step = np.empty(s.shape)
            np.divide(-rx * j22 + ry * j12, det, out=step[0])
            np.divide(-j11 * ry + j21 * rx, det, out=step[1])
            new = s + step
            big = np.maximum(*np.abs(new))
            keep = go & (big <= escape)
            if best:
                tiny = keep & (np.maximum(*np.abs(step)) <= 1e-15 * np.maximum(1.0, big))
                if tiny.any():  # retire on the step: one last residual
                    keep &= ~tiny
                    k = tiny.nonzero()[0]
                    last = new.take(k, 1)
                    rx, ry, dropped, _ = terms(last)
                    _better(rows, idx[k], last, np.maximum(np.abs(rx), np.abs(ry)), dropped)
            if np.count_nonzero(keep) < keep.size:  # an escape's row is its update
                k = settle(keep, new if best else np.where(go, new, s))
                idx, s, res = idx[k], new.take(k, 1), res[k]
            else:
                s = new
        if not best:  # a residual not below tol is a breakdown's
            rows[2] = np.where(rows[2] < tol, rows[2], np.inf)
            for i, x, y, r in zip(idx.tolist(), *s.tolist(), res.tolist()):
                rows[:, i] = finish(x, y, r, max_iter - done)
    return rows.T


def _put(rows, i, s, r):
    # the rows (x, y, residual) of the seeds i: s their points, r residuals;
    # rows[0][i] costs half of rows[0, i]
    rows[0][i], rows[1][i], rows[2][i] = s[0], s[1], r


def _better(rows, i, s, res, dropped):
    # the best rows of the seeds i, given their points s and residuals res:
    # a drop loses the row's, and a lower residual takes it over
    if dropped is not None and dropped.any():
        rows[2][i[dropped]] = np.inf
    k = (res < rows[2][i]).nonzero()[0]
    _put(rows, i[k], s.take(k, 1), res[k])


# The finish of one ghost-scan seed on python floats (`_newton`'s finish):
# at most n_ iterations from (x_, y_), whose last residual is res_, of the
# loop of tests/oracles.scalar_scan, with the step written in once for the
# point and once for its four Jacobian probes.  A step that raises one of
# _DROPS gives nan, which ends the seed with residual inf, as do a residual
# that is not finite, a singular Jacobian and an escape; a probe's drop
# does so once the other probes are called, as seed by seed.  It returns
# the row (x, y, residual).  Its own names end in "_", which no step text
# uses.
_FINISH = """\
def form(tol_, escape_, e, components{bound}):
    def finish(x_, y_, res_, n_):
        for _ in range(n_):
            try:
                x, y = x_, y_
                {step}
            except _DROPS:
                x = y = nan
            rx_, ry_ = x - x_, y - y_
            if not (isfinite(rx_) and isfinite(ry_)):
                return x_, y_, inf
            res_ = max(abs(rx_), abs(ry_))
            if res_ < tol_:
                break
            dx_, dy_ = 1e-6 * max(1.0, abs(x_)), 1e-6 * max(1.0, abs(y_))
            at_ = []
            for x, y in ((x_ + dx_, y_), (x_ - dx_, y_), (x_, y_ + dy_), (x_, y_ - dy_)):
                try:
                    {step}
                except _DROPS:
                    x = y = nan
                at_ += x, y
            px1_, py1_, px0_, py0_, qx1_, qy1_, qx0_, qy0_ = at_
            j11_, j21_ = (px1_ - px0_) / (2.0 * dx_) - 1.0, (py1_ - py0_) / (2.0 * dx_)
            j12_, j22_ = (qx1_ - qx0_) / (2.0 * dy_), (qy1_ - qy0_) / (2.0 * dy_) - 1.0
            det_ = j11_ * j22_ - j12_ * j21_
            if not isfinite(det_) or abs(det_) < 1e-14:
                return x_, y_, inf
            x_, y_ = x_ + (-rx_ * j22_ + ry_ * j12_) / det_, y_ + (-j11_ * ry_ + j21_ * rx_) / det_
            if not (abs(x_) <= escape_ and abs(y_) <= escape_):
                return x_, y_, inf
        return x_, y_, res_
    return finish
"""


# systems imports this module: the class whose components the fields make
# is read last, once every name above is defined
from .systems import PartialValues, SplitSystem  # noqa: E402
