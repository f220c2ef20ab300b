// Mini-tree fixture: a host matching effects outside the shell. It is not a
// designated consumer, so its missing `Ghost` arm is not a finding.
pub fn consume(effect: Effect) {
    match effect {
        Effect::Send { to, msg } => deliver(to, msg),
        Effect::Persist(delta) => journal(delta),
    }
}
