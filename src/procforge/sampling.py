"""Transition-sample sources.

Three interchangeable producers of ``(state, action, next_state, reward)``
batches over a template: a deterministic ground-truth oracle with
configurable noise injection, line-delimited sample files, and a remote
text-generation endpoint prompted from the template.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import EndpointAuthError, EndpointError, ValidationError
from .schemas import load_json
from .templates import BoundAction, MdpTemplate, enumerate_states

PROMPT_VERSION = "1"

SOURCE_ORACLE = "oracle"
SOURCE_FILE = "file"
SOURCE_ENDPOINT = "endpoint"
SOURCES = (SOURCE_ORACLE, SOURCE_FILE, SOURCE_ENDPOINT)


@dataclass(frozen=True)
class TransitionSample:
    state: dict[str, str]
    action: BoundAction
    next_state: dict[str, str]
    reward: int

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "state": dict(sorted(self.state.items())),
                "action": self.action.id,
                "params": dict(self.action.params),
                "next_state": dict(sorted(self.next_state.items())),
                "reward": self.reward,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class SampleBatch:
    """Samples in source order.

    The oracle and ingestion hand out one shared :class:`TransitionSample`
    per distinct record, so a record that repeats is the same object
    repeated; consumers read ``state`` and ``next_state`` and never mutate
    them.  Per-record work is done once per distinct object.
    """

    template: MdpTemplate
    samples: tuple[TransitionSample, ...]
    source: str

    def jsonl_lines(self) -> Iterator[str]:
        """The JSONL text as one LF-ended line per sample; each distinct record is rendered once."""
        lines: dict[int, str] = {}
        for s in self.samples:
            line = lines.get(id(s))
            if line is None:
                line = lines[id(s)] = s.to_json_line() + "\n"
            yield line

    def to_jsonl(self) -> str:
        return "".join(self.jsonl_lines())


@dataclass(frozen=True)
class OracleRule:
    """Ground-truth behaviour of one bound action.

    ``valid_only`` restricts generation for this action to states where
    the preconditions hold, so no invalid-side evidence is produced.
    """

    preconditions: dict[str, str] = field(default_factory=dict)
    effects: dict[str, str] = field(default_factory=dict)
    valid_only: bool = False


@dataclass(frozen=True)
class OracleSpec:
    rules: dict[str, OracleRule]

    def validate_against(self, tpl: MdpTemplate) -> None:
        """Fail unless the rules cover exactly the template's bound actions,
        over its variables and their domains."""
        missing = [key for key in tpl.bound_actions_by_key if key not in self.rules]
        if missing:
            raise ValidationError(f"oracle does not cover template actions: {missing}")
        extra = sorted(self.rules.keys() - tpl.bound_actions_by_key.keys())
        if extra:
            raise ValidationError(f"oracle rules for actions not in the template: {extra}")
        for key, rule in self.rules.items():
            for mapping, label in ((rule.preconditions, "precondition"), (rule.effects, "effect")):
                for var, value in mapping.items():
                    if var not in tpl.domains:
                        raise ValidationError(f"{key}: {label} variable {var!r} not in template")
                    if value not in tpl.domains[var]:
                        raise ValidationError(
                            f"{key}: {label} value {value!r} not in domain of {var}"
                        )

    @staticmethod
    def from_dict(doc: dict) -> "OracleSpec":
        return OracleSpec(rules={key: OracleRule(**item) for key, item in doc.items()})


@dataclass(frozen=True)
class NoiseSpec:
    reward_flip_rate: float = 0.0
    effect_corrupt_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("reward_flip_rate", "effect_corrupt_rate"):
            rate = getattr(self, name)
            if isinstance(rate, bool):
                raise ValueError(f"{name} must be a finite number, got {rate!r}")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")


def simulate_oracle(
    tpl: MdpTemplate,
    oracle: OracleSpec,
    n: int,
    noise: NoiseSpec = NoiseSpec(),
    actions: list[str] | None = None,
) -> SampleBatch:
    """Generate ``n`` samples from the ground-truth oracle.

    States are drawn uniformly from the enumerated state space (restricted
    to precondition-satisfying states for ``valid_only`` actions).  When
    the preconditions hold the effects are applied and the reward is 1;
    otherwise the state is left unchanged and the reward is 0.  Noise then
    flips rewards and corrupts next-states independently.  ``actions``
    optionally restricts generation to a subset of bound-action keys.

    Deterministic given the noise seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    oracle.validate_against(tpl)
    bound = tpl.bound_actions()
    if actions is not None:
        wanted = set(actions)
        unknown = wanted - {b.key for b in bound}
        if unknown:
            raise ValidationError(f"unknown action keys: {sorted(unknown)}")
        bound = [b for b in bound if b.key in wanted]
        if not bound:
            raise ValueError("action filter excludes every template action")

    states = [tpl.state_tuple(s) for s in enumerate_states(tpl)]
    # Per bound action: its state pool and its preconditions and effects
    # as (variable index, value) pairs.
    plans = []
    for b in bound:
        rule = oracle.rules[b.key]
        pre = [(tpl.variable_index[v], val) for v, val in rule.preconditions.items()]
        effects = [(tpl.variable_index[v], val) for v, val in rule.effects.items()]
        pool = states
        if rule.valid_only:
            pool = [s for s in states if all(s[i] == val for i, val in pre)]
            if not pool:
                raise ValidationError(f"{b.key}: no state satisfies the preconditions")
        plans.append((b, pool, pre, effects))

    rng = random.Random(noise.seed)
    made: dict[tuple, TransitionSample] = {}  # one object per distinct record
    samples = []
    for _ in range(n):
        index = rng.randrange(len(plans))
        action, pool, pre, effects = plans[index]
        state = pool[rng.randrange(len(pool))]
        if all(state[i] == val for i, val in pre):
            next_state = list(state)
            for i, val in effects:
                next_state[i] = val
            next_state = tuple(next_state)
            reward = 1
        else:
            next_state = state
            reward = 0
        # Noise draws are consumed unconditionally so that the same seed
        # yields the same underlying transitions at any noise rate.
        flip_u = rng.random()
        corrupt_u = rng.random()
        if flip_u < noise.reward_flip_rate:
            reward = 1 - reward
        if corrupt_u < noise.effect_corrupt_rate:
            next_state = states[rng.randrange(len(states))]
        key = (index, state, next_state, reward)
        sample = made.get(key)
        if sample is None:
            sample = made[key] = TransitionSample(
                state=tpl.state_dict(state),
                action=action,
                next_state=tpl.state_dict(next_state),
                reward=reward,
            )
        samples.append(sample)
    return SampleBatch(template=tpl, samples=tuple(samples), source=SOURCE_ORACLE)


# ── ingestion ─────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class IngestReport:
    batch: SampleBatch
    rejections: tuple[tuple[int, str], ...]


def parse_sample_line(tpl: MdpTemplate, line: str) -> TransitionSample:
    """Parse and validate one JSONL sample record."""
    try:
        doc = load_json(line)
    except ValueError as exc:  # a syntax error's message without its position
        raise ValidationError(f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("record must be a JSON object")
    for key in ("state", "action", "next_state", "reward"):
        if key not in doc:
            raise ValidationError(f"missing key {key!r}")
    action = tpl.bound_action(doc["action"], doc.get("params", {}))
    state = tpl.validate_assignment(doc["state"], "state")
    next_state = tpl.validate_assignment(doc["next_state"], "next_state")
    reward = doc["reward"]
    if reward not in (0, 1):
        raise ValidationError(f"reward must be 0 or 1, got {reward!r}")
    return TransitionSample(state=state, action=action, next_state=next_state, reward=int(reward))


def ingest_samples(
    stream,
    tpl: MdpTemplate,
    strict: bool = False,
    source: str = SOURCE_FILE,
) -> IngestReport:
    """Validate line-delimited sample records against a template.

    Malformed lines are collected into the rejection report (line number,
    reason) rather than raised, unless ``strict`` is set.  Blank lines are
    ignored.  Each distinct valid line is parsed once and its repeats share
    the sample; an invalid line is parsed and reported at every occurrence.
    """
    if isinstance(stream, str):
        # Not splitlines(): JSON strings may hold U+2028, U+2029 and U+0085 raw.
        stream = stream.split("\n")
    parsed: dict[str, TransitionSample] = {}  # valid line text -> its one sample
    accepted = []
    rejections = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        sample = parsed.get(line)
        if sample is None:
            try:
                sample = parsed[line] = parse_sample_line(tpl, line)
            except ValidationError as exc:
                if strict:
                    raise ValidationError(f"line {lineno}: {exc}") from exc
                rejections.append((lineno, str(exc)))
                continue
        accepted.append(sample)
    batch = SampleBatch(template=tpl, samples=tuple(accepted), source=source)
    return IngestReport(batch=batch, rejections=tuple(rejections))


# ── prompting ─────────────────────────────────────────────────────────────


def build_prompt(tpl: MdpTemplate, n: int) -> str:
    """Deterministic generation prompt embedding the template dictionary."""
    lines = [
        f"procforge transition-sample prompt, version {PROMPT_VERSION}",
        f"template: {tpl.focal_object}",
        "",
        "You are generating state-transition samples for one piece of",
        "laboratory equipment. A sample is a JSON object on a single line",
        'with the keys "state", "action", "params", "next_state", "reward".',
        "",
        "Use only the state variables, values, and actions listed here.",
        "",
        "State variables (every state must assign all of them):",
    ]
    for v in tpl.variables:
        lines.append(f"- {v.id}: " + " | ".join(v.domain))
    lines.append("")
    lines.append("Actions:")
    for a in tpl.actions:
        if a.params:
            rendered = ", ".join(f"{name}=" + "|".join(dom) for name, dom in a.params)
            lines.append(f"- {a.id} (params: {rendered})")
        else:
            lines.append(f"- {a.id} (no params)")
    lines += [
        "",
        "Judge each transition: set reward to 1 if the transition is",
        "plausible for real equipment of this kind, and 0 if it is",
        "implausible or invalid in that state. Include both plausible and",
        "implausible transitions; failed actions leave the state unchanged.",
        "",
        f"Produce exactly {n} records, one JSON object per line, and no",
        "other text.",
    ]
    return "\n".join(lines) + "\n"


# ── endpoint fetching ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    api_key_env: str = "PROCFORGE_API_KEY"
    timeout_s: float = 60.0
    max_retries: int = 2
    backoff_s: float = 1.0
    n_requests: int = 1
    response_path: str = "choices.0.message.content"

    def __post_init__(self):
        texts = (self.base_url, self.model, self.api_key_env, self.response_path)
        if not all(isinstance(v, str) for v in texts):
            raise ValueError(f"endpoint needs strings base_url, model, api_key_env and response_path, got {texts}")
        counts = (self.n_requests, self.max_retries)
        if not all(type(v) is int for v in counts) or self.n_requests < 1 or self.max_retries < 0:
            raise ValueError(f"endpoint needs integers n_requests >= 1 and max_retries >= 0, got {counts}")
        times = (self.timeout_s, self.backoff_s)
        finite = all(not isinstance(v, bool) and math.isfinite(v) for v in times)
        if not finite or self.timeout_s <= 0 or self.backoff_s < 0:
            raise ValueError(f"endpoint needs finite timeout_s > 0 and backoff_s >= 0, got {times}")


def _urllib_transport(url: str, headers: dict[str, str], body: bytes, timeout: float) -> tuple[int, str]:
    # Imported here, its only use: loading urllib.request pulls in
    # http.client, ssl and email, which no other source needs.
    import urllib.error
    import urllib.request

    req = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8", errors="replace")
    except urllib.error.URLError as exc:
        raise EndpointError(f"transport failure: {exc.reason}") from exc
    except TimeoutError as exc:
        raise EndpointError("request timed out") from exc


def _extract_text(doc: object, path: str) -> str:
    node = doc
    for part in path.split("."):
        if isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError) as exc:
                raise KeyError(part) from exc
        elif isinstance(node, dict):
            node = node[part]
        else:
            raise KeyError(part)
    if not isinstance(node, str):
        raise KeyError(path)
    return node


def _request_once(endpoint: EndpointConfig, prompt: str, transport) -> str:
    api_key = os.environ.get(endpoint.api_key_env)
    if not api_key:
        raise EndpointAuthError(f"environment variable {endpoint.api_key_env} is not set")
    body = json.dumps(
        {"model": endpoint.model, "messages": [{"role": "user", "content": prompt}]}
    ).encode("utf-8")
    headers = {"Content-Type": "application/json", "Authorization": f"Bearer {api_key}"}
    attempt = 0
    while True:
        try:
            status, text = transport(endpoint.base_url, headers, body, endpoint.timeout_s)
        except EndpointError:
            if attempt >= endpoint.max_retries:
                raise
            status, text = None, None
        if status is not None:
            if status in (401, 403):
                raise EndpointAuthError(f"endpoint rejected credentials (HTTP {status})")
            if status == 200:
                try:
                    return _extract_text(load_json(text), endpoint.response_path)
                except (ValueError, KeyError, TypeError) as exc:
                    err = EndpointError(f"unparseable endpoint response: {exc}")
                    err.raw_text = text  # preserved for audit
                    raise err from exc
            if status not in (429,) and status < 500:
                raise EndpointError(f"endpoint returned HTTP {status}: {text[:200]}")
        if attempt >= endpoint.max_retries:
            raise EndpointError(f"endpoint failed after {attempt + 1} attempts (HTTP {status})")
        time.sleep(endpoint.backoff_s * (2**attempt))
        attempt += 1


def fetch_samples(
    endpoint: EndpointConfig,
    prompt: str,
    tpl: MdpTemplate,
    transport=None,
    strict: bool = False,
) -> IngestReport:
    """Fetch generated samples from a text-generation endpoint.

    The response text is parsed as line-delimited records and validated
    exactly like :func:`ingest_samples`.  ``transport`` may be injected
    for testing; the default posts JSON over HTTP.  Multiple requests
    (``endpoint.n_requests``) are issued sequentially and merged in
    request order, so the result is deterministic given the responses.
    """
    transport = transport or _urllib_transport
    texts = [_request_once(endpoint, prompt, transport) for _ in range(endpoint.n_requests)]
    return ingest_samples("\n".join(texts), tpl, strict=strict, source=SOURCE_ENDPOINT)
