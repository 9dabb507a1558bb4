"""User-facing configuration: source/sink spec files and agent options.

Paper §V-E: users drive DisTA entirely from the launch command —
``-javaagent:DisTA.jar=taintSources=<file>,taintSinks=<file>`` — where the
two files list taint source and sink points as Java method descriptors,
one per line (``#`` comments allowed).  This module parses that surface
and applies it to a cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Accepted spellings for boolean launch extras / env switches.
_SWITCH_VALUES = {
    "on": True,
    "true": True,
    "1": True,
    "yes": True,
    "off": False,
    "false": False,
    "0": False,
    "no": False,
}


def parse_switch(value: str, option: str = "option") -> bool:
    """Parse an on/off launch-extra or environment switch value."""
    try:
        return _SWITCH_VALUES[value.strip().lower()]
    except KeyError:
        raise ValueError(
            f"malformed {option} value {value!r} (expected on/off)"
        ) from None


@dataclass
class TaintSpec:
    """Parsed source/sink descriptor lists."""

    sources: list[str] = field(default_factory=list)
    sinks: list[str] = field(default_factory=list)
    #: Fraction of configured source firings that actually taint — the
    #: tainted-traffic knob of the overhead sweep (1.0 = paper default).
    source_fraction: float = 1.0
    #: Flow-sampling period: track every k-th flow admitted at source
    #: registration.  ``None`` leaves the registries' default (1).
    sample_every: "int | None" = None

    @staticmethod
    def parse_spec_text(text: str) -> list[str]:
        """One method descriptor per line; blanks and ``#`` comments skipped."""
        out = []
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(line)
        return out

    @classmethod
    def from_texts(cls, sources_text: str = "", sinks_text: str = "") -> "TaintSpec":
        return cls(cls.parse_spec_text(sources_text), cls.parse_spec_text(sinks_text))

    def apply(self, cluster) -> None:
        cluster.configure_sources(self.sources)
        cluster.configure_sinks(self.sinks)
        if self.source_fraction != 1.0:
            cluster.configure_source_fraction(self.source_fraction)
        if self.sample_every is not None:
            cluster.configure_sample_every(self.sample_every)


@dataclass
class AgentOptions:
    """Options from the ``-javaagent:DisTA.jar=...`` argument string."""

    taint_sources: str = ""
    taint_sinks: str = ""
    taint_map: str = ""
    extras: dict = field(default_factory=dict)

    @classmethod
    def parse(cls, argument: str) -> "AgentOptions":
        """Parse ``key=value`` pairs separated by commas."""
        options = cls()
        if not argument:
            return options
        for pair in argument.split(","):
            if not pair:
                continue
            if "=" not in pair:
                raise ValueError(f"malformed agent option {pair!r} (expected key=value)")
            key, value = pair.split("=", 1)
            if key == "taintSources":
                options.taint_sources = value
            elif key == "taintSinks":
                options.taint_sinks = value
            elif key == "taintMap":
                options.taint_map = value
            else:
                options.extras[key] = value
        return options
