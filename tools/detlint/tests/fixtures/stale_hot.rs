// Known-bad: the manifest pins `hot_fn` and `renamed_fn` here, but only
// `hot_fn` exists. The missing name must be reported, or deleting a hot
// function silently drops it out of the pin.
fn hot_fn(x: u32) -> u32 {
    x + 1
}
