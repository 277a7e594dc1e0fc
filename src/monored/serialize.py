"""Configuration and trace (de)serialization.

Configurations are read from a JSON document keyed by component names; ids
are assigned in file order, which fixes the total order on components.
Traces (format `monored-trace-2`) serialize the permissible sequence, each
step listing the charts it replaces with their children, and a canonical
final-state section; loading the input plus the trace replays to a
byte-identical final state.  Replay reads only each step's centre and
exceptional name, so `monored-trace-1` traces, which also list every chart
a step leaves untouched, replay the same way.

Each step is rendered by one `StepRenderer` and the document assembled by
`trace_document`.  The CLI passes the renderer to the engine as its step
observer, so each step is rendered as the engine makes it and nothing is
blown up twice; `trace_to_obj` renders a finished sequence by replaying
it, checking that the records replay and reproduce the final
configuration.  `replay_trace` (`monored replay`) re-runs a written trace.
Both replay a sequence as one run of blow-ups (`transform.BlowUpRun`),
whose chart index moves once; the replay resolves each record's centre
names in the run's registry as it goes.
A trace is written in its canonical form (`canonical_json`), streamed in
pieces by `write_canonical`; replay reads JSON, so traces written in any
layout, the indented one the CLI once wrote included, replay alike.

Below the root, a chart shows each exceptional component as the component
that defined the chart at that component's stage, followed back while that
component is itself exceptional.  `_display_step` keeps this as a display
map per chart (exceptional id -> id shown, identity entries left out),
computed in one step from the parent's: the defining component k leaves the
map and the new exceptional component maps to what k showed as.  The
renderer keeps each live chart's name and map, so rendering a child costs
its own ideal, not its depth; `final_state_obj` folds the same step along
each final chart's path.  A stage no record covers (in a library run from
a grown start; traces start from inputs) contributes nothing.
"""

from __future__ import annotations

import hashlib
import json

from .core import Chart, Configuration, MarkedIdeal, Monomial, chart_name, max_order
from .errors import ValidationError, is_int
from .transform import BlowUpRun, blow_up_sequence

SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
TRACE_FORMAT = "monored-trace-2"
READABLE_TRACE_FORMATS = ("monored-trace-1", TRACE_FORMAT)


# the canonical form: sorted keys, no whitespace, non-ASCII kept; with no
# indent, json encodes it in C
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)
# how many levels of containers `write_canonical` writes item by item
WRITE_DEPTH = 5


def canonical_json(obj) -> str:
    return _CANONICAL.encode(obj)


def write_canonical(obj, fh) -> None:
    """Write `canonical_json(obj)` to `fh` in pieces, so the whole text is
    never held.  Lists, and dicts keyed by strings, down to `WRITE_DEPTH`
    levels are written item by item; every other value, those below that
    depth included, goes through json's C encoder in one piece."""
    encode, write = _CANONICAL.encode, fh.write

    def put(value, depth: int) -> None:
        if depth and isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
            sep = "{"
            for key, item in sorted(value.items()):
                write(sep + encode(key) + ":")
                put(item, depth - 1)
                sep = ","
            write("}")
        elif depth and isinstance(value, (list, tuple)) and value:
            sep = "["
            for item in value:
                write(sep)
                put(item, depth - 1)
                sep = ","
            write("]")
        else:
            write(encode(value))

    put(obj, WRITE_DEPTH)


def monomial_obj(registry, g: Monomial) -> dict:
    """A monomial as `{component name: exponent}`."""
    return {registry[c]: e for c, e in g.exps}


def component_names(registry, comps) -> list:
    """The names of a component set, in id order."""
    return [registry[c] for c in sorted(comps)]


# --- configuration input --------------------------------------------------

def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ValidationError(f"{where}: {message}")


def load_config(obj) -> Configuration:
    """The configuration a JSON document describes, the one definition of
    an input.  This checks only what parsing needs: the shape, that names
    resolve (only strings do), that no chart lists a name twice, `n_vars`
    and integer exponents; the constructors check every other rule, names
    and labels included."""
    _expect(isinstance(obj, dict), "$", "configuration must be an object")
    components = obj.get("components")
    _expect(
        isinstance(components, list) and components, "components", "non-empty name list required"
    )
    ids = {name: i for i, name in enumerate(components) if isinstance(name, str)}
    raw_charts = obj.get("charts")
    _expect(isinstance(raw_charts, list), "charts", "chart list required")
    charts = []
    for i, raw in enumerate(raw_charts):
        where = f"charts[{i}]"
        _expect(isinstance(raw, dict), where, "chart must be an object")

        def resolve(names, field):
            out = []
            _expect(isinstance(names, list), field, "name list required")
            for n in names:
                _expect(isinstance(n, str) and n in ids, field, f"unknown component {n!r}")
                _expect(ids[n] not in out, field, f"component {n!r} listed twice")
                out.append(ids[n])
            return out

        e_comps = resolve(raw.get("e_components", []), f"{where}.e_components")
        p_comps = resolve(raw.get("p_components", []), f"{where}.p_components")
        n_vars = raw.get("n_vars", [])
        _expect(
            isinstance(n_vars, list) and all(isinstance(v, str) for v in n_vars),
            f"{where}.n_vars",
            "list of labels required",
        )
        _expect(len(set(n_vars)) == len(n_vars), f"{where}.n_vars", "a label is listed twice")
        _expect(
            not ids.keys() & n_vars,
            f"{where}.n_vars",
            "labels must not collide with component names",
        )
        gens_raw = raw.get("generators")
        _expect(
            isinstance(gens_raw, list) and gens_raw,
            f"{where}.generators",
            "non-empty generator list required",
        )
        gens = []
        for j, graw in enumerate(gens_raw):
            gwhere = f"{where}.generators[{j}]"
            _expect(isinstance(graw, dict), gwhere, "exponent map required")
            exps = {}
            for n, e in graw.items():
                _expect(n in ids, gwhere, f"unknown component {n!r}")
                _expect(is_int(e) and e >= 0, gwhere, f"bad exponent for {n!r}")
                exps[ids[n]] = e
            gens.append(Monomial.of(exps))
        charts.append(
            Chart(
                label=raw.get("name"),
                e_components=tuple(sorted(e_comps)),
                n_vars=frozenset(n_vars),
                p_components=frozenset(p_comps),
                ideal=MarkedIdeal.of(gens, obj.get("mark")),
            )
        )
    return Configuration(tuple(components), tuple(charts), obj.get("dim_p"))


def read_json_file(path: str):
    """The JSON document in a UTF-8 file; an unreadable file, invalid JSON,
    a key repeated in one object or nesting too deep is a validation error."""

    def members(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = sorted(key for key, _ in pairs)
            key = next(a for a, b in zip(keys, keys[1:]) if a == b)
            raise ValidationError(f"{path}: invalid JSON: key {key!r} repeated in one object")
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=members)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError(f"{path}: invalid JSON: nested too deeply to read") from None


def load_config_file(path: str) -> Configuration:
    return load_config(read_json_file(path))


def _chart_fields(registry, chart: Chart) -> dict:
    """The fields a chart shares with its input-schema form, less its name."""
    return {
        "e_components": component_names(registry, chart.e_components),
        "n_vars": sorted(chart.n_vars),
        "p_components": component_names(registry, chart.p_components),
        "generators": [monomial_obj(registry, g) for g in chart.ideal.generators],
    }


def config_to_obj(cfg: Configuration) -> dict:
    """The document `load_config` reads back as `cfg`: root charts only,
    and nothing the schema cannot carry (a blow-up count, a P-empty root, a
    pullback excess).  Any other configuration is refused, so a trace always
    starts from an input that replays to the state it recorded."""
    for ch in cfg.charts:
        if ch.path:
            name = chart_name(cfg.registry, ch.label, ch.path)
            raise ValidationError(f"chart {name!r} is not a root chart: not an input")
    obj = {
        "components": list(cfg.registry),
        "dim_p": cfg.dim_p,
        "mark": cfg.mark,
        "charts": [{"name": ch.label, **_chart_fields(cfg.registry, ch)} for ch in cfg.charts],
    }
    if load_config(obj) != cfg:
        raise ValidationError("configuration does not read back from its document: not an input")
    return obj


def input_digest(document) -> str:
    """The `input_digest` of a trace whose input is `document`."""
    return "sha256:" + hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


# --- rendering ------------------------------------------------------------

def _display_step(display: dict[int, int], k: int, exceptional: int) -> None:
    """Make a chart's display map, in place, that of its child of `k` at
    the stage of `exceptional`: k leaves the chart, and the exceptional
    component shows as what k showed as."""
    display[exceptional] = display.pop(k, k)


def render_ideal(registry, chart: Chart, display: dict[int, int]) -> str:
    """The chart's generators in display names; below the root every name
    is barred."""
    names: dict[int, str] = {}
    for comp in chart.ideal.component_support:
        name = registry[display.get(comp, comp)]
        names[comp] = "".join(c + "\u0304" for c in name) if chart.path else name
    rendered = []
    for g in chart.ideal.generators:
        factors = [names[c] if e == 1 else names[c] + str(e).translate(SUPERSCRIPTS) for c, e in g.exps]
        rendered.append("".join(factors) if factors else "1")
    return ", ".join(rendered)


# --- state and trace output -----------------------------------------------

def chart_to_obj(cfg: Configuration, chart: Chart, display: dict[int, int]) -> dict:
    return {
        "name": chart_name(cfg.registry, chart.label, chart.path),
        "path": [[s, cfg.registry[k]] for s, k in chart.path],
        **_chart_fields(cfg.registry, chart),
        "p_empty": chart.p_empty,
        "mark": chart.mark,
        "pullback_excess": monomial_obj(cfg.registry, chart.pullback_excess),
        "rendered": render_ideal(cfg.registry, chart, display),
    }


def final_state_obj(cfg: Configuration, records) -> dict:
    exceptional_of = {rec.stage: rec.exceptional for rec in records}
    charts = []
    for ch in cfg.charts:
        display: dict[int, int] = {}
        for stage, k in ch.path:
            if stage in exceptional_of:
                _display_step(display, k, exceptional_of[stage])
        charts.append(chart_to_obj(cfg, ch, display))
    return {
        "components": list(cfg.registry),
        "charts": charts,
        "summary": {
            "steps": len(records),
            "final_max_order": max_order(cfg),
            "principal": all(len(ch.ideal.generators) == 1 for ch in cfg.charts),
        },
    }


class StepRenderer:
    """Renders the steps of a permissible sequence as trace records.

    Called as `on_step(registry, outcomes, record)` after each blow-up, in
    order, with the registry naming its exceptional component and its
    (chart, children) pairs: it appends the step's record object (centre,
    exceptional name, and each replaced chart with its children) to `objs`.
    It keeps the name and display map of every live chart a step added,
    under the chart's id and with the chart, and makes a child's from its
    parent's; a chart it never saw added (a root chart, or one of a grown
    start in a library run) starts from its full name and the identity map.
    """

    def __init__(self) -> None:
        self.objs: list[dict] = []
        self._charts: dict[int, tuple[Chart, str, dict[int, int]]] = {}

    def __call__(self, registry, outcomes, rec) -> None:
        live = self._charts
        rendered = []
        for parent, children in outcomes:
            _, name, display = live.pop(id(parent), None) or (
                parent, chart_name(registry, parent.label, parent.path), {}
            )
            kids = []
            for child in children:
                step = child.path.last
                child_name = chart_name(registry, name, (step,))
                child_display = dict(display)
                _display_step(child_display, step[1], rec.exceptional)
                live[id(child)] = (child, child_name, child_display)
                kids.append(
                    {
                        "chart": child_name,
                        "generators": [monomial_obj(registry, g) for g in child.ideal.generators],
                        "rendered": render_ideal(registry, child, child_display),
                    }
                )
            rendered.append({"chart": name, "children": kids})
        self.objs.append(
            {
                "stage": rec.stage,
                "center": component_names(registry, rec.center),
                "exceptional": registry[rec.exceptional],
                "outcomes": rendered,
            }
        )


def trace_document(
    initial: Configuration, steps: StepRenderer, final: Configuration, records, extra=None
) -> dict:
    """The trace of `records` from `initial` to `final`, whose steps
    `steps` rendered.  The input is encoded, and so read back, once."""
    document = config_to_obj(initial)
    obj = {
        "format": TRACE_FORMAT,
        "input_digest": input_digest(document),
        "input": document,
        "records": steps.objs,
        "final": final_state_obj(final, records),
    }
    if extra:
        obj.update(extra)
    return obj


def trace_to_obj(initial: Configuration, records, final: Configuration) -> dict:
    """Serialize a permissible sequence, replaying it to check the records
    and render each step."""
    steps = StepRenderer()
    given = iter(records)

    def render(registry, outcomes, rec) -> None:
        if rec != next(given):
            raise ValidationError("trace records do not replay deterministically")
        steps(registry, outcomes, rec)

    cfg, _ = blow_up_sequence(initial, [rec.center for rec in records], render)
    if cfg != final:
        raise ValidationError("records do not reproduce the final configuration")
    return trace_document(initial, steps, final, records)


def replay_trace(trace_obj) -> tuple[Configuration, list]:
    """Re-run the recorded centres from the input the trace carries."""
    if not isinstance(trace_obj, dict) or "input" not in trace_obj:
        raise ValidationError("trace file carries no input section")
    cfg = load_config(trace_obj["input"])
    _expect(
        trace_obj.get("format") in READABLE_TRACE_FORMATS, "format", "unsupported trace format"
    )
    digest = input_digest(config_to_obj(cfg))
    _expect(
        trace_obj.get("input_digest") == digest,
        "input_digest",
        "trace does not belong to this configuration",
    )
    raw_records = trace_obj.get("records", [])
    _expect(isinstance(raw_records, list), "records", "record list required")
    run = BlowUpRun(cfg)

    def centres():
        for i, rec in enumerate(raw_records):
            where = f"records[{i}]"
            _expect(isinstance(rec, dict), where, "record must be an object")
            center_names = rec.get("center")
            _expect(
                isinstance(center_names, list)
                and center_names
                and all(isinstance(n, str) for n in center_names),
                where,
                "center required as a non-empty list of component names",
            )
            yield [run.registry.component_id(n) for n in center_names]
            # the last name is the step's exceptional component
            _expect(run.registry[-1] == rec.get("exceptional"), where, "exceptional component name mismatch")

    records = run.blow_up_along(centres())
    return run.grown(), records
