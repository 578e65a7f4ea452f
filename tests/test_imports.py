"""Every name a module of the package imports is used in that module, and
every name it exports is defined or imported in it. Only ``simcluster``
sends and delivers cluster messages, only ``mcmc``, ``prefetch`` and
``subsample`` use the parts of the MH transition, data orders are drawn
only by ``rng``'s lazy permutation and tested without numpy's hashing
calls, FlyMC and the prefetch predictor draw nothing per datum, FlyMC
allocates nothing per datum outside its debug check, the predictor reads
gradients only through ``subsample``'s one estimator, only
``subsample.taylor_proxy`` builds that estimator, and every
module-level name that its module does not export is read somewhere in the
package."""

import ast
from pathlib import Path

import pytest

import bigbayes

MODULES = sorted(Path(bigbayes.__file__).parent.glob("*.py"))


def unused_imports(source: str):
    """Imported names never referenced in ``source`` (``__all__`` counts as a use)."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_finds_unused_and_accepts_used():
    src = ("import math\nimport os.path\nfrom typing import Optional, Sequence\n"
           "from .x import y as z\n__all__ = ['z']\n"
           "def f(a: Optional[int]):\n    return os.path.join('a')\n")
    assert unused_imports(src) == [(1, "math"), (3, "Sequence")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], f"{path.name} imports names it never uses"


def stale_exports(source: str):
    """Names in ``__all__`` that no top-level statement of ``source`` binds."""
    tree = ast.parse(source)
    bound = set()
    exported = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_export_checker_finds_stale_and_accepts_bound():
    src = ("import math\nfrom .x import y as z\n__all__ = ['math', 'z', 'f', 'C', 'K', 'gone']\n"
           "K = 1\ndef f():\n    gone = 2\nclass C:\n    pass\n")
    assert stale_exports(src) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    assert stale_exports(path.read_text()) == [], f"{path.name} exports names it never defines"


def cluster_message_calls(source: str):
    """Line numbers of ``.send(...)`` and ``.run_until_quiescent(...)`` calls in ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("send", "run_until_quiescent"))


def test_message_call_checker_flags_planted_calls():
    src = ("def f(cluster, tasks):\n    cluster.map_on_workers(tasks)\n"
           "    cluster.send(0, 1, 'x')\n    send = 2\n    cluster.run_until_quiescent()\n")
    assert cluster_message_calls(src) == [3, 5]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "simcluster.py"],
                         ids=lambda p: p.name)
def test_only_simcluster_sends_messages(path):
    # every fan-out is SimCluster.map_on_workers, the one scatter-gather
    assert cluster_message_calls(path.read_text()) == [], (
        f"{path.name} sends cluster messages outside map_on_workers")


MH_PARTS = {"mh_propose", "mh_log_alpha", "_finite_or_neginf"}
# prefetch evaluates densities on workers and subsample tests a threshold,
# so both compose the parts of the MH transition apart
MH_PART_USERS = {"mcmc.py", "prefetch.py", "subsample.py"}


def mh_part_references(source: str):
    """(line, name) of every import, name or attribute in ``source`` that is an MH part."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        refs.update((node.lineno, name) for name in names if name in MH_PARTS)
    return sorted(refs)


def test_mh_part_checker_flags_planted_references():
    src = ("from .mcmc import mh_step, mh_propose as draw\nfrom . import mcmc\n"
           "def f(p, g):\n    a = mcmc.mh_log_alpha(0.0, p, 1, 2)\n"
           "    return _finite_or_neginf(f, a), draw(p, 0, g), mh_step\n")
    assert mh_part_references(src) == [(1, "mh_propose"), (4, "mh_log_alpha"),
                                       (5, "_finite_or_neginf")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in MH_PART_USERS],
                         ids=lambda p: p.name)
def test_only_split_samplers_use_mh_parts(path):
    # every other MH move is a whole mcmc.mh_step
    assert mh_part_references(path.read_text()) == [], (
        f"{path.name} composes MH parts instead of calling mcmc.mh_step")


def permutation_calls(source: str):
    """(line, enclosing top-level def or class, or None) of every ``.permutation(...)``
    call in ``source``."""
    calls = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        calls += [(node.lineno, owner) for node in ast.walk(top)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "permutation"]
    return sorted(calls)


def test_permutation_checker_flags_planted_calls():
    src = ("import numpy as np\nP = np.random.permutation(3)\n"
           "def f(gen, n):\n    shuffle = gen.permutation\n    return gen.permutation(n)\n"
           "class C:\n    def g(self, gen):\n        return [gen.permutation(2)]\n")
    assert permutation_calls(src) == [(2, None), (5, "f"), (8, "C")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "rng.py"],
                         ids=lambda p: p.name)
def test_only_rng_draws_data_permutations(path):
    # a data order is an rng._LazyPermutation, drawn only as far as it is read;
    # a random-scan Gibbs sweep permutes its few variables, not the data
    found = [(line, owner) for line, owner in permutation_calls(path.read_text())
             if (path.name, owner) != ("mcmc.py", "gibbs_sweep")]
    assert found == [], f"{path.name} calls .permutation( outside rng.py"


HASHING_CALLS = {"isin", "unique"}
# index work here sorts: a rejection draw finds repeats by a sort and drawn
# indices by a mask or a searchsorted, far cheaper than numpy's hashing calls
SORTED_ORDER_MODULES = ["rng.py", "subsample.py", "sgld.py"]


def hashing_calls(source: str):
    """(line, name) of every call in ``source`` to a function or method named
    ``isin`` or ``unique``."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in HASHING_CALLS:
                calls.append((node.lineno, name))
    return sorted(calls)


def test_hashing_call_checker_flags_planted_calls():
    src = ("import numpy as np\nfrom numpy import unique\ndef f(a, b):\n"
           "    isin = np.isin\n    return np.isin(a, b), unique(a), a.sort()\n")
    assert hashing_calls(src) == [(5, "isin"), (5, "unique")]


@pytest.mark.parametrize("name", SORTED_ORDER_MODULES)
def test_index_orders_use_no_hashing_calls(name):
    path = Path(bigbayes.__file__).parent / name
    assert hashing_calls(path.read_text()) == [], f"{name} calls np.isin or np.unique"


# the position of the size argument of each numpy Generator draw method
DRAW_SIZE_ARG = {"random": 0, "standard_normal": 0, "bytes": 0, "permutation": 0,
                 "exponential": 1, "choice": 1, "integers": 2, "uniform": 2, "normal": 2,
                 "binomial": 2, "hypergeometric": 3}
DATA_SIZES = {"N", "n_data"}


def data_sized_draws(source: str):
    """(line, method) of every Generator draw in ``source`` whose size
    argument, passed by position or as ``size=``, mentions ``N`` or ``n_data``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in DRAW_SIZE_ARG):
            continue
        pos = DRAW_SIZE_ARG[node.func.attr]
        sizes = node.args[pos:pos + 1] + [kw.value for kw in node.keywords if kw.arg == "size"]
        names = {getattr(n, "id", getattr(n, "attr", None)) for arg in sizes for n in ast.walk(arg)}
        if names & DATA_SIZES:
            found.append((node.lineno, node.func.attr))
    return sorted(found)


def test_data_sized_draw_checker_flags_planted_calls():
    src = ("def f(rng, target, N, k):\n    n = target.n_data\n"
           "    a = rng.random(N)\n    b = rng.choice(N, k, replace=False)\n"
           "    c = rng.integers(0, 2, size=target.n_data)\n    d = rng.binomial(k, 0.5)\n"
           "    e = rng.choice(k, size=N - 1)\n    return rng.random(k), np.zeros(N)\n")
    assert data_sized_draws(src) == [(3, "random"), (5, "integers"), (7, "choice")]


def test_firefly_draws_nothing_per_datum():
    # a resample draws O(bright + candidates) variates; an N-sized draw
    # would make every step O(N) again
    path = Path(bigbayes.__file__).parent / "firefly.py"
    assert data_sized_draws(path.read_text()) == [], "firefly.py draws N variates"


ALLOCATORS = {"zeros", "ones", "empty", "full"}


def data_sized_allocations(source: str):
    """(line, enclosing top-level def or class, or None) of every call in
    ``source`` to a function or method named ``zeros``, ``ones``, ``empty``
    or ``full`` whose shape, passed first or as ``shape=``, mentions ``N`` or
    ``n_data``."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in ALLOCATORS:
                continue
            shapes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "shape"]
            names = {getattr(n, "id", getattr(n, "attr", None))
                     for arg in shapes for n in ast.walk(arg)}
            if names & DATA_SIZES:
                found.append((node.lineno, owner))
    return sorted(found)


def test_data_sized_allocation_checker_flags_planted_calls():
    src = ("import numpy as np\nfrom numpy import zeros\nZ = np.ones(3)\n"
           "def f(target, N, k):\n    a = np.zeros(target.n_data, dtype=bool)\n"
           "    b = np.empty((N, 2))\n    c = zeros(shape=N - 1)\n    d = np.full(k, N)\n"
           "    return np.zeros(k), np.arange(N)\n"
           "class C:\n    def g(self, N):\n        return np.ones(N)\n")
    assert data_sized_allocations(src) == [(5, "f"), (6, "f"), (7, "f"), (12, "C")]


def test_firefly_allocates_nothing_per_datum():
    # a state holds its bright indices only, so a step and a flip are
    # O(bright); only the debug check rebuilds the dark complement
    path = Path(bigbayes.__file__).parent / "firefly.py"
    found = [(line, owner) for line, owner in data_sized_allocations(path.read_text())
             if owner != "check_coherence"]
    assert found == [], f"firefly.py allocates N-sized arrays at {found}"


PREFETCH = Path(bigbayes.__file__).parent / "prefetch.py"


def test_prefetch_draws_nothing_per_datum():
    # a predictor call draws one batch of indices; an N-sized draw would
    # make every speculated node O(N), as costly as evaluating it
    assert data_sized_draws(PREFETCH.read_text()) == [], "prefetch.py draws N variates"


def test_data_sized_draw_checker_flags_a_draw_planted_in_prefetch():
    source = PREFETCH.read_text()
    assert source.count("size=m,") == 1
    planted = source.replace("size=m,", "size=target.n_data,")
    assert [name for _, name in data_sized_draws(planted)] == ["choice"]


DERIVATIVE_KERNELS = ("grad_log_lik_terms", "taylor_log_lik_terms")


def gradient_kernel_references(source: str):
    """Lines of every name or attribute in ``source`` called
    ``grad_log_lik_terms`` or ``taylor_log_lik_terms``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Name) and node.id in DERIVATIVE_KERNELS)
                  or (isinstance(node, ast.Attribute) and node.attr in DERIVATIVE_KERNELS))


def test_gradient_kernel_checker_flags_a_read_planted_in_prefetch():
    source = PREFETCH.read_text()
    line = "        r = llr_terms(proxy.target, idx, theta, theta_new)\n"
    assert source.count(line) == 1
    start = source[:source.index(line)].count("\n") + 1
    for read in ("g = target.grad_log_lik_terms(idx, theta)",
                 "q = target.taylor_log_lik_terms(idx, theta, theta_new)"):
        planted = source.replace(line, line + "        " + read + "\n")
        assert gradient_kernel_references(planted) == [start + 1]
    assert gradient_kernel_references('doc = "grad_log_lik_terms"\n') == []  # code only


def test_prefetch_estimates_only_through_the_subsample_proxy():
    # a predictor that read the gradient or Taylor kernel itself would be a
    # second log-likelihood-ratio estimator beside subsample.TaylorProxy
    assert gradient_kernel_references(PREFETCH.read_text()) == [], (
        "prefetch.py reads grad_log_lik_terms or taylor_log_lik_terms")


def proxy_builds(source: str):
    """(line, top-level owner) of every call of ``TaylorProxy`` in ``source``,
    by name or as an attribute; the owner is the enclosing module-level
    function or class, or None."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "TaylorProxy":
                    found.append((node.lineno, owner))
    return sorted(found)


def stray_proxy_builds(sources: dict):
    """(module, line) of every ``TaylorProxy`` call in ``sources``, a dict of
    module name to source, outside ``subsample.taylor_proxy``."""
    return [(module, line) for module, source in sorted(sources.items())
            for line, owner in proxy_builds(source)
            if (module, owner) != ("subsample.py", "taylor_proxy")]


def test_proxy_build_checker_flags_calls_planted_in_a_copy_of_the_package():
    sources = {p.name: p.read_text() for p in MODULES}
    cached = "    proxy = taylor_proxy(target, theta0)\n"
    assert sources["subsample.py"].count(cached) == 1
    start = sources["subsample.py"][:sources["subsample.py"].index(cached)].count("\n") + 1
    sources["subsample.py"] = sources["subsample.py"].replace(
        cached, "    proxy = TaylorProxy(target, theta0)\n")
    assert stray_proxy_builds(sources) == [("subsample.py", start)]
    sources["prefetch.py"] += ("\n\ndef _build(target, c):\n"
                               "    return subsample.TaylorProxy(target, c)\n")
    lines = sources["prefetch.py"].count("\n")
    assert stray_proxy_builds(sources) == [("prefetch.py", lines), ("subsample.py", start)]


def test_only_the_caching_function_builds_a_proxy():
    # a sampler that built its own TaylorProxy would pay the O(N d^2) pass
    # on every run instead of sharing the target's cached proxy
    sources = {p.name: p.read_text() for p in MODULES}
    assert stray_proxy_builds(sources) == [], "TaylorProxy built outside taylor_proxy"
    assert [owner for _, owner in proxy_builds(sources["subsample.py"])] == ["taylor_proxy"]


def dead_private_names(sources: dict):
    """(module, line, name) of every private module-level name in
    ``sources``, a dict of module name to source, that no statement of any
    module reads outside the statement that binds it. A name is private
    unless it is a dunder or its module exports it in ``__all__``."""
    defs, reads, exported = [], [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                if "__all__" in bound:
                    exported.update((module, name) for name in ast.literal_eval(stmt.value))
            else:
                bound = []
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            reads.append(names)
            defs += [(module, stmt.lineno, name, len(reads) - 1) for name in bound
                     if not name.startswith("__")]
    return [(module, line, name) for module, line, name, own in defs
            if (module, name) not in exported
            and not any(name in names for i, names in enumerate(reads) if i != own)]


def test_dead_private_checker_flags_unread_names():
    sources = {
        "a.py": ("__all__ = ['f', 'g']\n_K, _UNUSED = 1, 2\n__slots__ = ()\n"
                 "def _helper():\n    return _K\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\nclass _Used:\n    pass\n"
                 "def f():\n    pass\nLIMIT = 3\ndef g():\n    return f()\n"),
        "b.py": "from .a import _helper\ndef h(a):\n    return a._Used\n",
    }
    # g is exported: an entry point that nothing in the package reads is not dead
    assert dead_private_names(sources) == [("a.py", 2, "_UNUSED"), ("a.py", 6, "_recursive"),
                                           ("a.py", 12, "LIMIT"), ("b.py", 2, "h")]


def test_dead_private_checker_flags_helpers_left_behind_in_rng():
    # a helper whose only caller is gone, and an unexported constant nothing reads
    sources = {p.name: p.read_text() for p in MODULES}
    source = sources["rng.py"]
    lines = source.count("\n")
    sources["rng.py"] = (source + "\n\ndef _subset_mask(gen, among, k):\n    return among\n"
                         "\n\nBLOCK_FLOOR = 4\n")
    assert dead_private_names(sources) == [("rng.py", lines + 3, "_subset_mask"),
                                           ("rng.py", lines + 7, "BLOCK_FLOOR")]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in MODULES}
    assert dead_private_names(sources) == [], "private names that nothing in the package reads"
