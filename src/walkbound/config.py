"""Line-based run configuration: dotted keys, one `key = value` per line.

The grammar is deliberately tiny so fixture files diff cleanly:

    # comment (whole line only)
    group.rank = 2
    group.acting = z            # none | z | z^K | free:K
    auto.alpha.images = a, ab
    auto.alpha.inverses = a, Ab
    theta = alpha
    measure.atom.1.word = a
    measure.atom.1.part = 0     # omit for the identity part
    measure.atom.1.weight = 0.25
    measure.check_generation = true
    sublattice.moduli = 2
    run.n_paths = 2000

Words use the package's letter encoding (a..z lowercase, A..Z inverses,
"1" the identity); lattice parts are comma-separated integers and free
acting parts are words over the acting generators. `run.*` keys hold
numeric per-command defaults that command-line flags override; integral
values are kept as exact ints, so a 64-bit seed survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .groups import ActingGroup, ExtElement, ModuliSpec
from .morphisms import Automorphism
from .walk import StepMeasure
from .words import Word

__all__ = [
    "RunConfig",
    "build_acting_group",
    "build_measure",
    "emit_config",
    "named_automorphisms",
    "parse_config",
    "sublattice_spec",
]


@dataclass(frozen=True)
class RunConfig:
    """A validated, normalized run description."""

    rank: int
    acting: str
    autos: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]
    theta: tuple[str, ...]
    atoms: tuple[tuple[str, str, float], ...]
    check_generation: bool = True
    moduli: tuple[int, ...] | None = None
    params: tuple[tuple[str, int | float], ...] = field(default_factory=tuple)

    def param(self, name: str, default: float | None = None) -> int | float | None:
        for key, value in self.params:
            if key == name:
                return value
        return default


def _parse_acting(text: str) -> tuple[str, int]:
    """Normalize the acting-group spelling to (kind, k)."""
    label = text.strip().lower()
    if label == "none":
        return "lattice", 0
    if label == "z":
        return "lattice", 1
    if label.startswith("z^"):
        try:
            k = int(label[2:])
        except ValueError as exc:
            raise ConfigError(f"bad acting group {text!r}") from exc
        if k < 1:
            raise ConfigError(f"bad acting group {text!r}")
        return "lattice", k
    if label.startswith("free:"):
        try:
            k = int(label[5:])
        except ValueError as exc:
            raise ConfigError(f"bad acting group {text!r}") from exc
        if k < 1:
            raise ConfigError(f"bad acting group {text!r}")
        return "free", k
    raise ConfigError(f"unknown acting group {text!r}; use none, z, z^K or free:K")


def _format_acting(kind: str, k: int) -> str:
    if kind == "lattice":
        return "none" if k == 0 else ("z" if k == 1 else f"z^{k}")
    return f"free:{k}"


def _split_words(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(","))


def parse_config(text: str) -> RunConfig:
    """Parse and validate the dotted-key format; see the module docstring."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value

    def take(key: str, default: str | None = None) -> str | None:
        return pairs.pop(key, default)

    rank_text = take("group.rank")
    if rank_text is None:
        raise ConfigError("missing group.rank")
    try:
        rank = int(rank_text)
    except ValueError as exc:
        raise ConfigError(f"bad group.rank {rank_text!r}") from exc
    kind, k = _parse_acting(take("group.acting", "none"))

    autos = []
    auto_names = sorted(
        {key.split(".")[1] for key in pairs if key.startswith("auto.")}
    )
    for name in auto_names:
        images_text = take(f"auto.{name}.images")
        inverses_text = take(f"auto.{name}.inverses")
        if images_text is None or inverses_text is None:
            raise ConfigError(f"automorphism {name!r} needs images and inverses")
        images = _split_words(images_text)
        inverses = _split_words(inverses_text)
        try:
            phi = Automorphism.parse(rank, images, inverses)
        except ValueError as exc:
            raise ConfigError(f"automorphism {name!r}: {exc}") from exc
        # store the normalized spellings
        autos.append(
            (
                name,
                tuple(str(wd) for wd in phi.images),
                tuple(str(wd) for wd in phi.inverse_images),
            )
        )

    theta_text = take("theta")
    theta = _split_words(theta_text) if theta_text else ()
    known = {name for name, _, _ in autos}
    for name in theta:
        if name not in known:
            raise ConfigError(f"theta names unknown automorphism {name!r}")
    if len(theta) != k:
        raise ConfigError(f"theta lists {len(theta)} automorphisms, acting group needs {k}")

    check_text = take("measure.check_generation", "true").lower()
    if check_text not in ("true", "false"):
        raise ConfigError("measure.check_generation must be true or false")
    check_generation = check_text == "true"

    try:
        indices = sorted(
            {
                int(key.split(".")[2])
                for key in pairs
                if key.startswith("measure.atom.")
            }
        )
    except ValueError as exc:
        raise ConfigError("atom keys must look like measure.atom.N.word") from exc
    if not indices:
        raise ConfigError("no measure atoms configured")
    if indices != list(range(1, len(indices) + 1)):
        raise ConfigError(f"atom indices must be 1..{len(indices)}, got {indices}")
    acting = ActingGroup(kind, _build_thetas(rank, autos, theta), rank)
    atoms = []
    for i in indices:
        word_text = take(f"measure.atom.{i}.word")
        part_text = take(f"measure.atom.{i}.part")
        weight_text = take(f"measure.atom.{i}.weight")
        if word_text is None or weight_text is None:
            raise ConfigError(f"atom {i} needs word and weight")
        try:
            word = Word.parse(rank, word_text)
        except ValueError as exc:
            raise ConfigError(f"atom {i}: {exc}") from exc
        part = acting.parse_part(part_text) if part_text is not None else acting.identity_part()
        try:
            weight = float(weight_text)
        except ValueError as exc:
            raise ConfigError(f"atom {i}: bad weight {weight_text!r}") from exc
        atoms.append((str(word), acting.format_part(part), weight))

    moduli_text = take("sublattice.moduli")
    moduli = None
    if moduli_text is not None:
        try:
            moduli = tuple(int(x) for x in moduli_text.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad sublattice.moduli {moduli_text!r}") from exc

    params = []
    for key in sorted(pairs):
        if not key.startswith("run."):
            raise ConfigError(f"unknown config key {key!r}")
        params.append((key[len("run."):], _parse_number(key, pairs[key])))

    return RunConfig(
        rank=rank,
        acting=_format_acting(kind, k),
        autos=tuple(autos),
        theta=theta,
        atoms=tuple(atoms),
        check_generation=check_generation,
        moduli=moduli,
        params=tuple(params),
    )


def _parse_number(key: str, text: str) -> int | float:
    """An exact int when ``text`` is integral, else a float."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad numeric value for {key!r}: {text!r}") from exc
    return int(value) if value.is_integer() else value


def _build_thetas(
    rank: int,
    autos: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] | list,
    theta: tuple[str, ...],
) -> tuple[Automorphism, ...]:
    table = {
        name: Automorphism.parse(rank, images, inverses)
        for name, images, inverses in autos
    }
    return tuple(table[name] for name in theta)


def build_acting_group(config: RunConfig) -> ActingGroup:
    kind, _ = _parse_acting(config.acting)
    return ActingGroup(
        kind, _build_thetas(config.rank, config.autos, config.theta), config.rank
    )


def build_measure(config: RunConfig, acting: ActingGroup | None = None) -> StepMeasure:
    acting = acting if acting is not None else build_acting_group(config)
    atoms = [
        ExtElement(Word.parse(config.rank, word_text), acting.parse_part(part_text))
        for word_text, part_text, _ in config.atoms
    ]
    weights = [weight for _, _, weight in config.atoms]
    return StepMeasure(
        acting, atoms, weights, check_generation=config.check_generation
    )


def named_automorphisms(config: RunConfig) -> dict[str, Automorphism]:
    return {
        name: Automorphism.parse(config.rank, images, inverses)
        for name, images, inverses in config.autos
    }


def sublattice_spec(config: RunConfig) -> ModuliSpec | None:
    return ModuliSpec(config.moduli) if config.moduli is not None else None


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def emit_config(config: RunConfig) -> str:
    """Serialize in canonical order; reparsing yields an equal RunConfig."""
    lines = [
        f"group.rank = {config.rank}",
        f"group.acting = {config.acting}",
    ]
    for name, images, inverses in config.autos:
        lines.append(f"auto.{name}.images = {', '.join(images)}")
        lines.append(f"auto.{name}.inverses = {', '.join(inverses)}")
    if config.theta:
        lines.append(f"theta = {', '.join(config.theta)}")
    lines.append(f"measure.check_generation = {'true' if config.check_generation else 'false'}")
    for i, (word_text, part_text, weight) in enumerate(config.atoms, start=1):
        lines.append(f"measure.atom.{i}.word = {word_text}")
        lines.append(f"measure.atom.{i}.part = {part_text}")
        lines.append(f"measure.atom.{i}.weight = {_format_number(weight)}")
    if config.moduli is not None:
        lines.append(f"sublattice.moduli = {','.join(str(m) for m in config.moduli)}")
    for key, value in config.params:
        lines.append(f"run.{key} = {value!r}")
    return "\n".join(lines) + "\n"
