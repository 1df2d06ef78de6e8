"""Scene-synthesis process of the benchmark: writes one synthetic scene.

    python3 perfbench/scene.py MODEL OUT SHAPE_SEED CAMERA_SEED NOISE_SEED \
        VIEWS WIDTH HEIGHT NOISE_DEG

This runs ``synth.generate_scene``, as ``footfit synth`` does, with the
foot shape, the cameras and the normal noise drawn from three seeds.
``footfit synth --seed n`` draws all three from n.  A benchmark seed that
changed the foot or the cameras would change the work and the reachable
accuracy of a fit by more than any bound can hold (over five seeds of
3-view 480x640 scenes the covered pixels ranged from 114k to 148k), so a
workload fixes the foot and the cameras and its seed draws the noise.

The shape uses the generator ``footfit synth`` uses
(``synth.random_scene_params``); the keypoint spread and the cutoff height
keep the ``synth`` defaults.
"""

import sys

import numpy as np

from footfit import camera, footmodel, synth


def main(argv):
    model_path, out = argv[0], argv[1]
    shape_seed, camera_seed, noise_seed, views, width, height = (
        int(a) for a in argv[2:8])
    noise = float(argv[8])
    model = footmodel.load_model(model_path)
    _, field = model
    gt = synth.random_scene_params(np.random.default_rng(shape_seed),
                                   field.d_s, field.d_p)
    arc = camera.ArcSamplerConfig(width=width, height=height)
    spec = synth.SceneSpec(gt, arc=arc, n_views=views, sigma_view_deg=noise,
                           seed=noise_seed)
    # generate_scene draws each view's camera and then its noise from one
    # stream per view; cameras come from their own stream instead
    cameras = np.random.default_rng(camera_seed)
    draw = camera.sample_arc
    camera.sample_arc = lambda config, rng: draw(config, cameras)
    synth.generate_scene(spec, model, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
