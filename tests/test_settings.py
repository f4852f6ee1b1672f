"""Tests for the consolidated RunSettings configuration object."""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine.settings import (
    ENV_CELL_RETRIES,
    ENV_CELL_TIMEOUT,
    ENV_GRID_STRICT,
    ENV_GRID_WORKERS,
    ENV_RESULT_CACHE,
    ENV_RETRY_BACKOFF,
    ENV_SERVE_MAX_TABLE_MB,
    ENV_SERVE_WORKERS,
    ENV_SLOW_SPCD,
    ENV_TRACE,
    RunSettings,
    available_cpus,
)
from repro.errors import ConfigurationError


def test_defaults_from_empty_environment():
    s = RunSettings.from_env({})
    assert s == RunSettings()
    assert s.workers == 1
    assert s.cache_dir is None and s.trace is None
    assert not s.slow_spcd
    assert s.cell_timeout_s is None
    assert s.cell_retries == 2
    assert s.retry_backoff_s == 0.25
    assert not s.strict


def test_from_env_round_trip():
    env = {
        ENV_GRID_WORKERS: "1",
        ENV_RESULT_CACHE: "/tmp/cache",
        ENV_TRACE: "/tmp/trace",
        ENV_SLOW_SPCD: "on",
        ENV_CELL_TIMEOUT: "12.5",
        ENV_CELL_RETRIES: "4",
        ENV_RETRY_BACKOFF: "0.5",
        ENV_GRID_STRICT: "true",
    }
    s = RunSettings.from_env(env)
    assert s.workers == 1
    assert s.cache_dir == "/tmp/cache"
    assert s.trace == "/tmp/trace"
    assert s.slow_spcd and s.strict
    assert s.cell_timeout_s == 12.5
    assert s.cell_retries == 4
    assert s.retry_backoff_s == 0.5
    # the dict view round-trips into an equal instance
    assert RunSettings(**s.as_dict()) == s


def test_from_env_reads_the_process_environment(monkeypatch):
    monkeypatch.setenv(ENV_CELL_RETRIES, "7")
    monkeypatch.setenv(ENV_GRID_STRICT, "1")
    s = RunSettings.from_env()
    assert s.cell_retries == 7 and s.strict


def test_env_workers_is_capped_at_available_cpus():
    s = RunSettings.from_env({ENV_GRID_WORKERS: "10000"})
    assert s.workers == min(10000, available_cpus())
    # an explicitly constructed instance is honored verbatim
    assert RunSettings(workers=10000).workers == 10000


def test_serve_workers_from_env():
    assert RunSettings.from_env({}).serve_workers == 1
    s = RunSettings.from_env({ENV_SERVE_WORKERS: "4"})
    # deliberately NOT capped at available_cpus: detection workers are
    # I/O-interleaved with the router, and the parity tests oversubscribe
    assert s.serve_workers == 4
    with pytest.raises(ConfigurationError, match="bad REPRO_SERVE_WORKERS"):
        RunSettings.from_env({ENV_SERVE_WORKERS: "two"})
    with pytest.raises(ConfigurationError):
        RunSettings(serve_workers=0)


@pytest.mark.parametrize(
    "env",
    [
        {ENV_GRID_WORKERS: "three"},
        {ENV_SLOW_SPCD: "maybe"},
        {ENV_SLOW_SPCD: "2"},
        {ENV_CELL_TIMEOUT: "soon"},
        {ENV_CELL_RETRIES: "2.5"},
        {ENV_RETRY_BACKOFF: "fast"},
        {ENV_GRID_STRICT: "kinda"},
        {ENV_SERVE_MAX_TABLE_MB: "0"},
    ],
)
def test_garbage_env_values_raise(env):
    with pytest.raises(ConfigurationError, match="bad REPRO_"):
        RunSettings.from_env(env)


def test_bad_grid_workers_message_names_the_variable():
    with pytest.raises(ConfigurationError, match="bad REPRO_GRID_WORKERS value 'three'"):
        RunSettings.from_env({ENV_GRID_WORKERS: "three"})


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        RunSettings(workers=0)
    with pytest.raises(ConfigurationError):
        RunSettings(cell_timeout_s=0.0)
    with pytest.raises(ConfigurationError):
        RunSettings(cell_retries=-1)
    with pytest.raises(ConfigurationError):
        RunSettings(retry_backoff_s=-0.1)


def test_settings_are_frozen():
    s = RunSettings()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.workers = 4


def test_with_overrides_semantics():
    base = RunSettings(workers=2, cell_retries=1)
    # None keeps the existing value; values replace it
    assert base.with_overrides(workers=None) is base
    derived = base.with_overrides(workers=4, strict=True)
    assert derived.workers == 4 and derived.strict
    assert derived.cell_retries == 1  # untouched fields carry over
    assert base.workers == 2  # the original is untouched (frozen)
    with pytest.raises(ConfigurationError, match="unknown RunSettings"):
        base.with_overrides(warp_speed=9)
