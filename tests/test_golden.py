"""Byte-identity gate: the CLI's files and a live run for one worst-case seed,
pinned by sha256.

``simulate``, ``run --method all`` and ``compare`` promise deterministic
bytes for a fixed invocation. These digests were recorded from the outputs
before streams became columnar; a change that alters any written byte fails
here. The live digests cover ``run_pipeline_live`` over a rebooting
``VoSensor`` (track bytes, modes, restarts, correction vectors, stop
decisions and sensor reboots); they were recorded from the per-sample fusion
loop, before it was driven by UWB ticks. Stop decisions are pinned by their
values, so a field added to the record leaves the digest alone. A digest is
only ever re-recorded for a deliberate change of an output format, never to
make a refactor pass.
"""
import hashlib
import io
from contextlib import redirect_stdout

import pytest

from uwbvo.cli import main
from uwbvo.config import default_pipeline_params
from uwbvo.pipeline import MODE_NAMES, run_pipeline_live
from uwbvo.simulate import VoSensor, build_truth, simulate_pair, worst_case_scenario

GOLDEN_SHA256 = {
    "compare.csv": "c6bf25947a62cce5de1c550c00c090b3f63c48d48c996d0da72e520c9c84d9a2",
    "meta_0000.json": "81c3cede877fa31c9388a1f95bcb5781799b13db2faa8f463d991fac02b4e98a",
    "reports.csv": "729cd065cad2ddea1772226a9770a5f321aec9ca2ec6f8a72e94b48466744480",
    "scenario.ini": "d7716452a91ad33b400f2db31e61bc3e5ed4cf9c673a911f3429ace2485ae69f",
    "streams_0000.csv": "0301f1d35e549277fe0e4081d21f00bb09cc17f32e62db169d0a937ff0595b09",
    "tracks/errors_avg-fusion_0000.csv": "f8ca96ac0668e296e6663f2387425ac73ee2a44b9445f547aefc72975b0eb09b",
    "tracks/errors_direct-fusion_0000.csv": "76495d0d40a1b4d5542d26ff0703842c5d26e9db3cb93f7b77034abfa60d2171",
    "tracks/errors_pozyx-ctra_0000.csv": "e2313fb519f2f68b18d26983ed9d47d6635a72fc5dc106e38b9a058fa9bae2ab",
    "tracks/errors_raw-uwb_0000.csv": "b948c319e5a1b98b2e51bf76272bb69be455c67edd7f3c1a05b69f6a80b3f9d2",
    "tracks/errors_raw-vo_0000.csv": "ac0b7326ffafe52fad568cefff7abae036f98aa1b55c80d21667d5e2aca82684",
    "tracks/errors_self-corrective_0000.csv": "0be67f42cb499e357c74c4f193ff26ce9ec6d89e8814764cc2d6832e4b437735",
    "tracks/stops_self-corrective_0000.csv": "2b72a829189fb9ded1e18b8ec173386f8bd60dd75096fb6c1a92af4ff36a1497",
    "tracks/track_avg-fusion_0000.csv": "46a5afc5cc9bb75392965f7e2bf3398d4b82af0505adec14c55db61066be5799",
    "tracks/track_direct-fusion_0000.csv": "b08efb93287b1533248afff2ab3400910652d3d8070f1d6b3a67085f4c63f701",
    "tracks/track_pozyx-ctra_0000.csv": "56372b55bfeb531444c1623045f98f82fc4b9de3027c5f36203bb86d1d3a4a86",
    "tracks/track_raw-uwb_0000.csv": "19481c12a158176e99cc3374c5a139688c66164b4ced74ed1e1ef16a754417d0",
    "tracks/track_raw-vo_0000.csv": "0537e7eb3f4ea6e84ba1b495f4c204178b18bcd965eaa1411725d62368113f90",
    "tracks/track_self-corrective_0000.csv": "67ec77dfabca9743fe4805c15ca388e456282090ac117152c29fca72a07e222c",
    "truth_0000.csv": "21e4364743c796f937df30f2a01ede4be1166640e7d2cdcc243bcd8d4c6446ce",
}


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    with redirect_stdout(io.StringIO()):
        assert main(["simulate", "--scenario", "worst-case", "--seed", "0",
                     "--out", str(out)]) == 0
        assert main(["run", "--logs", str(out), "--method", "all", "--seed", "0"]) == 0
        assert main(["compare", str(out)]) == 0
    return out


def test_cli_writes_exactly_the_pinned_files(golden_dir):
    written = sorted(
        p.relative_to(golden_dir).as_posix() for p in golden_dir.rglob("*") if p.is_file()
    )
    assert written == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_cli_output_bytes_are_pinned(golden_dir, name):
    digest = hashlib.sha256((golden_dir / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]


LIVE_SHA256 = {
    "track": "abfeb0cf5f82f93ddb363d103e52d4a7655cec5e15f2755b7dafb54336d2cae5",
    "modes": "3bc14cc5fbd413600537ddf0a2e13748225723b2b9fc3c0912a058e186f9fbf7",
    "restarts": "8eca37fdaaa8aa20d8255bde57ab9abe4b18ebe3e0fc133dc2c6c8687a5f958d",
    "w_history": "6baf1d557edebdd463e1af8d22a14990f0d109021003ddfca36f35684fb1ca5f",
    "stop_events": "549bfb279d78a88d8c92fa246af175eb5149417b46b69e481d6d165eaf78ced3",
    "reboots": "af51c50edfcb73e0a7abb771748c169ccc83100a903b6c8e0714118c0240aa7d",
}


def _decision_values(e) -> tuple:
    """One stop decision's values, in a tuple that does not name the record's fields."""
    est = e.estimate
    return (
        e.stop_index, e.t_ms, e.planned.x, e.planned.y, est.pos.x, est.pos.y,
        est.support, est.samples_consumed, est.complete, e.closest_vo.x, e.closest_vo.y,
        e.distance_mm, e.restart,
    )


@pytest.fixture(scope="module")
def live_parts():
    scenario = worst_case_scenario()
    pair, _, _ = simulate_pair(scenario, 0)
    sensor = VoSensor(build_truth(scenario.plan), scenario.vo, 0)
    track = run_pipeline_live(pair.uwb, sensor, scenario.plan, default_pipeline_params())
    return {
        "track": track.samples.t_ms.tobytes() + track.samples.xy.tobytes(),
        "modes": "\n".join(MODE_NAMES[k] for k in track.kalman.tolist()).encode(),
        "restarts": repr(track.restarts).encode(),
        "w_history": repr(track.w_history).encode(),
        "stop_events": repr([_decision_values(e) for e in track.stop_events]).encode(),
        "reboots": repr(sensor.reboots).encode(),
    }


@pytest.mark.parametrize("name", sorted(LIVE_SHA256))
def test_live_run_is_pinned(live_parts, name):
    assert hashlib.sha256(live_parts[name]).hexdigest() == LIVE_SHA256[name]
